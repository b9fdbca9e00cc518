package workload

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/cluster"
	"repro/internal/msg"
	"repro/internal/server"
)

// TestStressRandomFailures hammers the paper's protocol with randomized
// contended workloads, message loss on the control network, and repeated
// isolate/heal cycles, then audits the complete history. The protocol's
// guarantee is unconditional: however the failures land, no concurrent
// conflicting lock use, no stale reads, no lost updates.
func TestStressRandomFailures(t *testing.T) {
	trials := 8
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("seed=%d", trial), func(t *testing.T) {
			stressTrial(t, int64(trial)*977+11)
		})
	}
}

func stressTrial(t *testing.T, seed int64) {
	opts := cluster.DefaultOptions()
	opts.Seed = seed
	opts.Clients = 4
	opts.Control.LossProb = 0.02 // datagrams drop even without partitions
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
		runners[i] = NewRunner(cl, i, wcfg, seed+int64(i))
		runners[i].Start()
	}

	// Two isolate/heal cycles against random victims.
	for cycle := 0; cycle < 2; cycle++ {
		victim := int(rng.Int31n(int32(opts.Clients)))
		at := time.Duration(cycle)*3*tau + time.Duration(rng.Int63n(int64(tau)))
		cl.Sched.After(at, func() { cl.IsolateClient(victim) })
		cl.Sched.After(at+tau+tau/2, func() { cl.HealControl() })
	}

	cl.RunFor(8 * tau)
	var ops uint64
	for _, r := range runners {
		r.Stop()
		ops += r.Ops
	}
	if ops < 500 {
		t.Fatalf("workload barely ran: %d ops", ops)
	}

	// Settle and audit.
	cl.RunFor(2 * tau)
	for i := range cl.Clients {
		cl.Sync(i)
	}
	cl.FinalCheck()
	if got := cl.Violations(); len(got) != 0 {
		for _, v := range got {
			t.Errorf("violation: %v", v)
		}
		t.Fatalf("%d violations after %d ops", len(got), ops)
	}

	// Everyone is functional again after the cycles.
	for i := range cl.Clients {
		if !cl.Clients[i].Registered() {
			// A final heal has happened; rejoin must complete promptly.
			cl.RunFor(2 * tau)
		}
		if !cl.Clients[i].Registered() {
			t.Fatalf("client %d never recovered", i)
		}
	}
	if err := atRest(cl, opts.Clients); err != nil {
		t.Fatal(err)
	}
}

// atRest is the liveness probe of a quiesced installation: the first n
// clients — those that have not crashed — have nothing left in flight on
// any object (Client.AtRest), and no server, replicas included, has a
// demand outstanding or a mutation parked for any client (Server.AtRest).
func atRest(cl *cluster.Cluster, n int) error {
	var errs []error
	for i := 0; i < n; i++ {
		for _, sub := range cl.Clients[i].Subs() {
			errs = append(errs, sub.AtRest())
		}
	}
	for _, sh := range cl.Shards {
		servers := sh.Replicas
		if len(servers) == 0 {
			servers = []*server.Server{sh.Server}
		}
		for _, s := range servers {
			errs = append(errs, s.AtRest())
		}
	}
	return errors.Join(errs...)
}

// TestStressClientCrashes mixes real crashes (volatile state lost) with
// the workload: the oracle excuses crashed clients' dirty data, and the
// survivors' view stays consistent.
func TestStressClientCrashes(t *testing.T) {
	opts := cluster.DefaultOptions()
	opts.Seed = 31
	opts.Clients = 3
	cl := cluster.New(opts)
	cl.Start()
	tau := opts.Core.Tau

	wcfg := DefaultConfig()
	wcfg.Files = 4
	wcfg.BlocksPerFile = 2
	wcfg.MeanThink = 40 * time.Millisecond
	Populate(cl, wcfg)

	for i := 0; i < 2; i++ { // only clients 0 and 1 run load
		NewRunner(cl, i, wcfg, int64(i)).Start()
	}
	// Client 2 grabs a lock and dies holding it.
	h2, _ := cl.MustOpen(2, FilePath(0), true, false)
	if errno := cl.Write(2, h2, 0, make([]byte, cluster.BlockSize)); errno != msg.OK {
		t.Fatal(errno)
	}
	cl.Sched.After(2*time.Second, func() { cl.CrashClient(2) })

	cl.RunFor(4 * tau)
	for i := 0; i < 2; i++ {
		cl.Sync(i)
	}
	cl.FinalCheck()
	if got := cl.Violations(); len(got) != 0 {
		t.Fatalf("violations: %v", got)
	}
	if err := atRest(cl, 2); err != nil {
		t.Fatal(err)
	}
	// The crashed client's lock was reclaimed: someone else can write
	// that file now.
	h0, _, errno := cl.Open(0, FilePath(0), true, false)
	if errno != msg.OK {
		t.Fatal(errno)
	}
	if errno := cl.Write(0, h0, 0, make([]byte, cluster.BlockSize)); errno != msg.OK {
		t.Fatalf("write after crash reclaim: %v", errno)
	}
}

// TestStressLossyBaselines sanity-checks that the SAFE baselines stay
// violation-free under loss too (their availability differs; their
// safety must not).
func TestStressLossyBaselines(t *testing.T) {
	for _, pol := range []baselines.Policy{baselines.Frangipani(), baselines.VSystem()} {
		pol := pol
		t.Run(pol.Name, func(t *testing.T) {
			opts := cluster.DefaultOptions()
			opts.Seed = 7
			opts.Clients = 3
			opts.Policy = pol
			opts.Control.LossProb = 0.02
			cl := cluster.New(opts)
			cl.Start()
			tau := opts.Core.Tau

			wcfg := DefaultConfig()
			wcfg.Files = 4
			wcfg.BlocksPerFile = 2
			wcfg.MeanThink = 60 * time.Millisecond
			Populate(cl, wcfg)
			for i := 0; i < opts.Clients; i++ {
				NewRunner(cl, i, wcfg, int64(i)).Start()
			}
			cl.Sched.After(2*tau, func() { cl.IsolateClient(1) })
			cl.Sched.After(3*tau+tau/2, func() { cl.HealControl() })
			cl.RunFor(6 * tau)
			cl.RunFor(2 * tau)
			for i := range cl.Clients {
				cl.Sync(i)
			}
			cl.FinalCheck()
			if got := cl.Violations(); len(got) != 0 {
				t.Fatalf("violations under %s: %v", pol.Name, got)
			}
		})
	}
}
