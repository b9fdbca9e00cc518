package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// pinnedEnv tells a re-executed tankbench that it is already confined; its
// value is "cpu/nproc".
const pinnedEnv = "TANKBENCH_PINNED"

// confine restricts the whole process to one CPU — the highest-numbered
// one it may run on, since CPU 0 is where a small machine's housekeeping
// lands — by setting the main thread's affinity and executing itself
// again, so that the runtime starts with every thread confined and sizes
// itself for one processor. On a shared two-core sandbox this is what
// makes a run repeatable: a goroutine woken on the other virtual CPU
// waits for the host to schedule that CPU, and that wait swings by a
// factor of two within minutes; on one CPU a wake-up is a context switch.
// It returns only if the process is already confined or cannot be.
func confine() (cpu, nproc int) {
	if v := os.Getenv(pinnedEnv); v != "" {
		if _, err := fmt.Sscanf(v, "%d/%d", &cpu, &nproc); err == nil {
			return cpu, nproc
		}
	}
	nproc = runtime.NumCPU()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var mask [16]uint64 // 1024 CPUs
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return -1, nproc
	}
	cpu = -1
	for i := int(n)*8 - 1; i >= 0; i-- {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpu = i
			break
		}
	}
	exe, err := os.Executable()
	if cpu < 0 || err != nil {
		return -1, nproc
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return -1, nproc
	}
	env := append(os.Environ(), fmt.Sprintf("%s=%d/%d", pinnedEnv, cpu, nproc))
	err = syscall.Exec(exe, os.Args, env) // returns only on failure
	fmt.Fprintf(os.Stderr, "tankbench: cannot re-execute confined to CPU %d: %v\n", cpu, err)
	return -1, nproc
}
