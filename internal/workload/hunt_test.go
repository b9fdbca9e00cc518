package workload

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/cluster"
	"repro/internal/trace"
)

// huntTrial is one randomized failure trial: four clients contending for
// five files over a lossy control network, two isolate/heal cycles
// against random victims, then the audit: the violations, and what the
// settled clients still have in flight (atRest).
func huntTrial(seed int64, tracer *trace.Tracer) ([]checker.Violation, error) {
	opts := cluster.DefaultOptions()
	opts.Seed = seed
	opts.Clients = 4
	opts.Control.LossProb = 0.02
	opts.Tracer = tracer
	cl := cluster.New(opts)
	cl.Start()
	tau := opts.Core.Tau
	rng := cl.Sched.Rand()
	wcfg := DefaultConfig()
	wcfg.Files = 5
	wcfg.BlocksPerFile = 3
	wcfg.MeanThink = 50 * time.Millisecond
	wcfg.ReadFrac, wcfg.WriteFrac, wcfg.StatFrac = 0.4, 0.4, 0.15
	// The files start a block short of what the runners write: the first
	// write to each one's last block extends it, which moves attributes
	// that every client has cached under the population directory's lock.
	short := wcfg
	short.BlocksPerFile--
	Populate(cl, short)
	runners := make([]*Runner, opts.Clients)
	for i := range runners {
		runners[i] = NewRunner(cl, i, wcfg, opts.Seed+int64(i))
		runners[i].Start()
	}
	for cycle := 0; cycle < 2; cycle++ {
		victim := int(rng.Int31n(int32(opts.Clients)))
		at := time.Duration(cycle)*3*tau + time.Duration(rng.Int63n(int64(tau)))
		cl.Sched.After(at, func() { cl.IsolateClient(victim) })
		cl.Sched.After(at+tau+tau/2, func() { cl.HealControl() })
	}
	cl.RunFor(8 * tau)
	for _, r := range runners {
		r.Stop()
	}
	cl.RunFor(2 * tau)
	for i := range cl.Clients {
		cl.Sync(i)
	}
	return cl.FinalCheck(), atRest(cl, opts.Clients)
}

// TestHuntRaces is a wide-seed sweep of the randomized failure trial,
// used to hunt interleaving-dependent protocol races. Skipped in -short.
func TestHuntRaces(t *testing.T) {
	if testing.Short() {
		t.Skip("wide sweep")
	}
	bad := 0
	for seed := int64(0); seed < 60; seed++ {
		got, rest := huntTrial(seed*977+11, nil)
		if len(got) > 0 {
			bad++
			fmt.Printf("seed %d: %d violations; first: %v\n", seed*977+11, len(got), got[0])
		} else if rest != nil {
			bad++
			fmt.Printf("seed %d: %v\n", seed*977+11, rest)
		}
	}
	if bad > 0 {
		t.Fatalf("%d/60 seeds produced violations", bad)
	}
}

// TestHuntFound replays the trials in which the sweep has found a race,
// each with what the trace showed of it.
//
// 24436: a client cut off in the middle of a demand's compliance. When its
// lease ran out, the compliance parked behind the cancelled operation went
// ahead and reported "nothing left to downgrade" — under the old epoch,
// since the registration was only reset afterwards. The server had never
// noticed the isolation, ACKed it after the heal, and the ACK renewed the
// lease of a client with no registration: its keep-alive was NACKed, every
// Rejoin ACK that followed was ignored by a lease in phase 3 and answered
// with another Rejoin — 459 of them — and a late one stole the locks the
// client had meanwhile been granted (concurrent-conflict).
//
// 99665: a client falsely suspected (its DemandAcks lost) rejoined before
// the server's timer fired. The steal the rejoin makes safe raised the
// fence and the rejoin lifted it, two datagrams to each disk that arrived
// in the other order: the client stayed fenced, its flushes were refused,
// and its readers saw what it had overwritten (stale-read).
//
// 1718554 and 56677: a compliance that outlived the lease. In both a
// client was cut off while complying with a demand for Shared: its flush
// was done (n13 on ino3, n11 on ino5) and the trim behind it still waiting
// on the server. τ after the flush the lease ran out, every lock was
// ceded, and the cancellation fired the trim's callback: the continuation
// wrote the demanded mode back, a Shared
// lock and a LockActive for a client with no registration. After the heal
// each of the other three wrote under an exclusive lock the server had
// every right to grant (concurrent-conflict, three times). The first seed
// fails on the tree before the grant carried the map — 11 of the 7 500
// seeds past the sweep's sixty do — the second inside the sweep itself
// once that change had moved the schedule.
func TestHuntFound(t *testing.T) {
	for _, seed := range []int64{24436, 99665, 1718554, 56677} {
		ring := trace.NewRing(1 << 16)
		got, rest := huntTrial(seed, trace.New(ring))
		if len(got) > 0 {
			t.Errorf("seed %d: %d violations; first: %v", seed, len(got), got[0])
		}
		if rest != nil {
			t.Errorf("seed %d: %v", seed, rest)
		}
		events := ring.Events()
		for i := 0; i < 4; i++ {
			if n := events.Count(trace.ByType(trace.EvRejoin), trace.ByPeer(cluster.ClientID(i))); n > 8 {
				t.Errorf("seed %d: client %d rejoined %d times", seed, i, n)
			}
		}
	}
}
