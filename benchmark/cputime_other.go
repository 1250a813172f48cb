//go:build !unix

package main

import "time"

// processCPUTime is unavailable here; cpu_ms_per_op reads 0.
func processCPUTime() time.Duration { return 0 }
