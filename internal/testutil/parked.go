package testutil

import (
	"runtime"
	"strings"
)

// ParkedInSelect reports how many goroutines are parked in a blocking
// select with frame — a substring of a function's qualified name, e.g.
// "serve.(*Server).nextTask" — on their stack. A select with a default
// case never parks, and a goroutine still running towards a select is not
// counted, so polling this tells a test that a goroutine has passed
// everything in front of the select it now waits in: the event a sleep
// would otherwise stand in for.
func ParkedInSelect(frame string) int {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	parked := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		header, stack, _ := strings.Cut(g, "\n")
		if strings.Contains(header, "[select") && !strings.Contains(header, "no cases") &&
			strings.Contains(stack, frame) {
			parked++
		}
	}
	return parked
}
