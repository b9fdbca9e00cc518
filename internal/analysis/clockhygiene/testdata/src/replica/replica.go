// Package replica is a clockhygiene fixture standing in for
// internal/replica: a lease acceptor holds off term·(1+ε) on its own
// clock (PaxosLease), so reading the ambient one breaks the bound.
package replica

import "time"

type Acceptor struct {
	term    time.Duration
	promise time.Time
}

func (a *Acceptor) promised() bool {
	return time.Now().Before(a.promise) // want `time.Now bypasses the injected clock`
}

func (a *Acceptor) holdOff() {
	time.AfterFunc(a.term, func() {}) // want `time.AfterFunc bypasses the injected clock`
}
