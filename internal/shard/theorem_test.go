package shard_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/msg"
	"repro/internal/trace"
)

// TestTheorem31PerShard asserts the paper's safety theorem INDEPENDENTLY
// per lease authority: each (client, server) pair runs its own lease, so
// when a node is cut off from every shard at once, each shard's steal
// must still be preceded — in the global event order — by the client's
// expiry of that specific pair's lease. The per-event Peer stamp is what
// lets the assertion bind client-side expiries to the one authority
// whose steal clock they race.
//
// It is a statement about skewed clocks, so it runs under them: two dozen
// seeds of rates drawn within the pairwise bound ε, and the adversarial
// corner — the isolated client as slow and every server as fast as the
// bound allows, where the client's τ and the server's τ(1+ε) are the same
// instant and only the renewal's head start (it dates from the send)
// keeps expiry first.
func TestTheorem31PerShard(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			opts := subtreeOptions()
			opts.Seed = seed
			theorem31PerShard(t, opts)
		})
	}
	t.Run("adversarial", func(t *testing.T) {
		opts := subtreeOptions()
		opts.ClientRates, opts.ServerRate = slowestAndFastest(opts)
		theorem31PerShard(t, opts)
	})
}

// slowestAndFastest pins client 0 to the slowest and the servers to the
// fastest rate the harness ever draws: any pair of clocks within
// sqrt(1+ε) of 1 satisfies the pairwise bound ε, and this pair meets it.
func slowestAndFastest(opts cluster.Options) (clientRates []float64, serverRate float64) {
	hi := math.Sqrt(1 + opts.Core.Bound.Eps)
	return []float64{1 / hi}, hi
}

func theorem31PerShard(t *testing.T, opts cluster.Options) {
	if !opts.ClockSkew {
		t.Fatal("the theorem is about skewed clocks; the options pin rate 1")
	}
	ring := trace.NewRing(1 << 16)
	opts.Tracer = trace.New(ring)
	inst := cluster.New(opts)
	inst.Start()
	tau := opts.Core.Tau

	// Node 0 dirties one file per shard: both pairs hold an exclusive
	// lock with dirty data, so both expiries must run a phase-4 flush.
	handles := make([]msg.Handle, opts.Shards)
	for si := 0; si < opts.Shards; si++ {
		path := fmt.Sprintf("/s%d/f", si)
		handles[si], _ = inst.MustOpen(0, path, true, true)
		if errno := inst.Write(0, handles[si], 0, block(byte('a'+si))); errno != msg.OK {
			t.Fatal(errno)
		}
	}

	// Cut node 0 off from EVERY authority.
	for si := 0; si < opts.Shards; si++ {
		inst.IsolatePair(0, si)
	}

	// The survivor demands both files; each authority independently arms
	// and fires its τ(1+ε) steal.
	for si := 0; si < opts.Shards; si++ {
		path := fmt.Sprintf("/s%d/f", si)
		h, _ := inst.MustOpen(1, path, true, false)
		if errno := inst.Write(1, h, 0, block('Z')); errno != msg.OK {
			t.Fatalf("survivor write on shard %d: %v", si, errno)
		}
	}

	events := ring.Events()
	isolated := cluster.ClientID(0)
	for si := 0; si < opts.Shards; si++ {
		sid := cluster.ServerID(si)
		// Exactly one steal per shard, aimed at the isolated node.
		if n := events.Count(trace.ByNode(sid), trace.ByType(trace.EvStealFired),
			trace.ByPeer(isolated)); n != 1 {
			t.Fatalf("shard %d: steal fired %d times, want 1", si, n)
		}
		// Theorem 3.1, this shard's instance: the client expired THIS
		// pair's lease (Peer = this authority) before this authority
		// stole.
		if err := events.Precedes(
			trace.And(trace.ByNode(isolated), trace.ByType(trace.EvExpire), trace.ByPeer(sid)),
			trace.And(trace.ByNode(sid), trace.ByType(trace.EvStealFired), trace.ByPeer(isolated)),
		); err != nil {
			t.Fatalf("Theorem 3.1 on shard %d: %v", si, err)
		}
		// The pair's phase-4 flush completed before its lease ran out.
		exp, _ := events.First(trace.ByNode(isolated), trace.ByType(trace.EvExpire), trace.ByPeer(sid))
		if exp.Note == "dirty" {
			t.Fatalf("shard %d: client expired with the phase-4 flush incomplete", si)
		}
	}

	// Heal, settle, audit every shard's history.
	inst.HealControl()
	inst.RunFor(2 * tau)
	inst.Sync(0)
	inst.Sync(1)
	if got := inst.FinalCheck(); len(got) != 0 {
		t.Fatalf("violations: %v", got)
	}
}
