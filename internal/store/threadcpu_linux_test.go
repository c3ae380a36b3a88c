//go:build linux

package store

import (
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPU is the CPU time the calling thread has used, to the
// nanosecond; a caller that compares two readings locks its goroutine to
// the thread between them.
func threadCPU(t *testing.T) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		t.Fatalf("clock_gettime(CLOCK_THREAD_CPUTIME_ID): %v", errno)
	}
	return time.Duration(ts.Nano())
}
