//go:build !linux

package serve

import "time"

// tailSleep is nil off Linux, so a wait there is the runtime timer alone.
// The millisecond rounding the tail works around is epoll_wait's: the
// kqueue netpoller takes a timespec, Windows has its own high-resolution
// timers, and package syscall exports no nanosleep on darwin.
var tailSleep func(d time.Duration) bool
