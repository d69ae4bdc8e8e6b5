package serve

import (
	"syscall"
	"time"
)

// tailSleep blocks the calling thread in nanosleep(2) for up to d.
// nanosleep runs on the kernel's high-resolution timers, so unlike the
// netpoller's epoll_wait it is not rounded to a millisecond. The Go
// runtime preempts with signals, and nanosleep returns EINTR after any
// handled signal whether or not the handler was installed with
// SA_RESTART; the caller re-issues the sleep for what is left of its
// monotonic target. Any other error reports the tail unusable.
func tailSleep(d time.Duration) bool {
	ts := syscall.NsecToTimespec(int64(d))
	err := syscall.Nanosleep(&ts, nil)
	return err == nil || err == syscall.EINTR
}
