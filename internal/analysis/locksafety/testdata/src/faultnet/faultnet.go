// Package faultnet is a locksafety fixture standing in for
// internal/faultnet: every live send consults the injector under its
// mutex, so the mutex may guard the tables and nothing slower.
package faultnet

import (
	"sync"
	"time"
)

type Faults struct {
	mu      sync.Mutex
	blocked map[[2]int]bool
	delay   time.Duration
}

func (f *Faults) JudgeSend(from, to int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.blocked[[2]int{from, to}]
}

func (f *Faults) delayUnderLock() {
	f.mu.Lock()
	defer f.mu.Unlock()
	time.Sleep(f.delay) // want `call to time.Sleep while f.mu is held`
}

func (f *Faults) delayAfterUnlock() {
	f.mu.Lock()
	d := f.delay
	f.mu.Unlock()
	time.Sleep(d)
}
