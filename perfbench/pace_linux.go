//go:build linux

package main

import (
	"runtime"
	"syscall"
	"time"
)

// pacer sleeps the open-loop sender until a due time. Go's timers wake up
// to a millisecond late when every P is idle, which would make a sender of
// thousands of requests per second late by whole milliseconds; so the
// sender owns an OS thread with a 1 µs timer slack and sleeps in
// nanosleep(2) directly.
type pacer struct{}

func newPacer() pacer {
	runtime.LockOSThread()
	const prSetTimerSlack = 29
	// Best effort: with the default 50 µs slack the pacer is just coarser.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
	return pacer{}
}

func (pacer) until(due time.Time) {
	d := time.Until(due)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up (EINTR) only sends early by the remainder
}

func (pacer) close() { runtime.UnlockOSThread() }
