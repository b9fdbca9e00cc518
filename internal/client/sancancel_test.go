package client_test

import (
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/msg"
)

// A client's SAN calls are cancelled in the order they were issued, at
// the expiry of its lease and at a crash alike: a run is replayed from
// its seed, so nothing it does may depend on an order the runtime
// chooses. The SAN drops everything the client sends, so each call is
// still in flight when its end comes.
func TestSANCancelInIssueOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		end  func(cl *cluster.Cluster)
	}{
		{"expiry", func(cl *cluster.Cluster) {
			cl.IsolateClient(0)
			cl.RunFor(2 * cl.Opts.Core.Tau)
		}},
		{"crash", func(cl *cluster.Cluster) { cl.CrashClient(0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for round := 0; round < 4; round++ {
				cl := boot(t)
				cl.SAN.Isolate(cluster.ClientID(0))
				var got []uint64
				for b := uint64(0); b < 8; b++ {
					cl.Clients[0].Sub(0).SANRead(cluster.FirstDisk, b, func(e msg.Errno) {
						if e == msg.ErrStale {
							got = append(got, b)
						}
					})
				}
				tc.end(cl)
				if want := []uint64{0, 1, 2, 3, 4, 5, 6, 7}; !slices.Equal(got, want) {
					t.Fatalf("round %d: cancelled %v, want the issue order %v", round, got, want)
				}
			}
		})
	}
}

// A SAN call issued from the callback of a cancelled one survives the
// cancellation, as a control call does: only the calls in flight when the
// episode ended are cancelled. Once the SAN is back, the disk answers it.
func TestSANCallIssuedDuringCancelSurvives(t *testing.T) {
	cl := boot(t)
	cl.SAN.Isolate(cluster.ClientID(0))
	c0 := cl.Clients[0].Sub(0)
	var late msg.Errno
	lateDone := false
	for b := uint64(0); b < 8; b++ {
		c0.SANRead(cluster.FirstDisk, b, func(e msg.Errno) {
			if b == 0 && e == msg.ErrStale {
				c0.SANRead(cluster.FirstDisk, 8, func(e msg.Errno) { late, lateDone = e, true })
			}
		})
	}
	cl.IsolateClient(0)
	cl.RunFor(2 * cl.Opts.Core.Tau)
	if lateDone {
		t.Fatalf("the call issued during the cancellation ended with it (%v)", late)
	}
	cl.SAN.Heal()
	cl.RunFor(cl.Opts.Core.Tau / 10)
	if !lateDone || late == msg.ErrStale {
		t.Fatalf("the call issued during the cancellation: answered %v (%v), want the disk's answer", lateDone, late)
	}
}
