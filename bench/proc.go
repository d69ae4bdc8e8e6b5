package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is Linux's USER_HZ: /proc/<pid>/stat counts CPU in 10 ms ticks
// on every architecture Go supports.
const clockTick = 10 * time.Millisecond

// procCPU returns the user+system CPU time a process has used so far.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted from
	// the closing parenthesis.
	rest := string(b[strings.LastIndexByte(string(b), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// selfCPU is procCPU for this process at getrusage's microsecond
// resolution.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssKB reads a process's current resident set (VmRSS).
func rssKB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("unparsable VmRSS %q", v)
			}
			return kb, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", pid)
}

// rssPoll is how often a load's resident set is sampled. The Go heap's
// sawtooth moves over seconds, so the largest of these samples is its crest.
const rssPoll = 50 * time.Millisecond

// watchRSS samples a process's resident set until the returned function is
// called, which stops the sampling and yields the largest value seen, in kB.
// VmHWM would also hold the pipeline fit's transient peak, which GC timing
// moves by a tenth from run to run; this is the peak of the serving phase.
func watchRSS(pid int) (peak func() float64) {
	stop, done := make(chan struct{}), make(chan float64)
	go func() {
		tick := time.NewTicker(rssPoll)
		defer tick.Stop()
		top := 0.0
		for {
			if kb, err := rssKB(pid); err == nil && kb > top {
				top = kb
			}
			select {
			case <-stop:
				done <- top
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-done
	}
}
