//go:build linux

package main

import (
	"runtime"
	"syscall"
	"time"
)

// timerSlack is the default timer slack of a Linux thread: nanosleep
// returns up to this much after the requested time.
const timerSlack = 50 * time.Microsecond

// sleepUntil waits until t with microsecond precision: nanosleep for all
// but the timer slack, then yield until t. (The Go runtime's own timers
// round an idle wait up to the next millisecond, which would swamp
// sub-millisecond open-loop latencies.)
func sleepUntil(t time.Time) {
	if d := time.Until(t) - timerSlack; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}
