//go:build !linux

package main

import "time"

// pacer sleeps the open-loop sender until a due time (see pace_linux.go).
type pacer struct{}

func newPacer() pacer { return pacer{} }

func (pacer) until(due time.Time) { time.Sleep(time.Until(due)) }

func (pacer) close() {}
