package workload

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
)

// TestHuntRaces is a wide-seed sweep of the randomized failure trial,
// used to hunt interleaving-dependent protocol races. Skipped in -short.
func TestHuntRaces(t *testing.T) {
	if testing.Short() {
		t.Skip("wide sweep")
	}
	bad := 0
	for seed := int64(0); seed < 60; seed++ {
		opts := cluster.DefaultOptions()
		opts.Seed = seed*977 + 11
		opts.Clients = 4
		opts.Control.LossProb = 0.02
		cl := cluster.New(opts)
		cl.Start()
		tau := opts.Core.Tau
		rng := cl.Sched.Rand()
		wcfg := DefaultConfig()
		wcfg.Files = 5
		wcfg.BlocksPerFile = 3
		wcfg.MeanThink = 50 * time.Millisecond
		wcfg.ReadFrac, wcfg.WriteFrac, wcfg.StatFrac = 0.4, 0.4, 0.15
		Populate(cl, wcfg)
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
		cl.FinalCheck()
		if n := len(cl.Violations()); n > 0 {
			bad++
			fmt.Printf("seed %d: %d violations; first: %v\n", opts.Seed, n, cl.Violations()[0])
		}
	}
	if bad > 0 {
		t.Fatalf("%d/60 seeds produced violations", bad)
	}
}
