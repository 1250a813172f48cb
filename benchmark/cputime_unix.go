//go:build unix

package main

import (
	"syscall"
	"time"
)

// processCPUTime returns the process's consumed CPU time (user+sys):
// the cost reading that preemption and steal time do not inflate.
func processCPUTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
