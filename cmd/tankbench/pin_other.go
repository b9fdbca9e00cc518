//go:build !linux

package main

import "runtime"

// confine is Linux-only; elsewhere the benchmark runs unconfined.
func confine() (cpu, nproc int) { return -1, runtime.NumCPU() }
