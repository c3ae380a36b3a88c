//go:build !linux

package store

import (
	"testing"
	"time"
)

var wallStart = time.Now()

// threadCPU is the wall time since the package's tests began where the
// thread's own CPU clock is not read: there the soak's timing counts the
// host's load too.
func threadCPU(*testing.T) time.Duration { return time.Since(wallStart) }
