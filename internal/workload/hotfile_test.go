package workload

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/msg"
	"repro/internal/trace"
)

// The headline property of the content-addressed cache under the
// shared-hot-file workload: readers keep the whole file resident but pay
// for only the alphabet's worth of bytes, read-ahead serves the scans,
// and the run stays consistent under the writer's lock churn.
func TestHotFileDedupAndPrefetch(t *testing.T) {
	opts := cluster.DefaultOptions()
	opts.Clients = 4
	cl := cluster.New(opts)
	cl.Start()

	cfg := DefaultHotFile()
	cfg.Readers = []int{1, 2, 3}
	PopulateHotFile(cl, cfg)

	hf := NewHotFile(cl, cfg)
	hf.Start()
	cl.RunFor(30 * time.Second)
	hf.Stop()

	if hf.Scans < 10 {
		t.Fatalf("readers completed only %d scans", hf.Scans)
	}
	if hf.Rewrites == 0 {
		t.Fatal("writer never rewrote")
	}
	if hf.Errors > hf.Scans {
		t.Fatalf("error rate too high: %d errors / %d scans", hf.Errors, hf.Scans)
	}

	// Settle: one last cold scan on reader 1 so its cache holds the whole
	// file at a deterministic instant.
	c1 := cl.Clients[1].Sub(0).Cache()
	c1.InvalidateAll()
	h, _ := cl.MustOpen(1, HotFilePath, false, false)
	for b := 0; b < cfg.Blocks; b++ {
		if _, errno := cl.Read(1, h, uint64(b)); errno != msg.OK {
			t.Fatalf("settle read %d: %v", b, errno)
		}
	}

	// Dedup: all Blocks pages resident, but only Alphabet distinct
	// contents' worth of bytes — the working set dedups ~Blocks/Alphabet×.
	if got := c1.ResidentPages(); got < cfg.Blocks {
		t.Fatalf("reader 1 has %d resident pages, want ≥ %d", got, cfg.Blocks)
	}
	budget := int64(cfg.Alphabet) * int64(cluster.BlockSize)
	if got := c1.ResidentBytes(); got > budget {
		t.Fatalf("reader 1 resident bytes %d exceed the alphabet budget %d — dedup ineffective", got, budget)
	}
	if cl.Reg.CounterValue("client.n11.cache.dedup_hits") == 0 {
		t.Fatal("no dedup hits on reader 1")
	}

	// Read-ahead: the sequential scans must have engaged it and the
	// prefetched pages must actually have served reads.
	var batches, hits uint64
	for _, r := range cfg.Readers {
		id := cluster.ClientID(r)
		batches += cl.Reg.CounterValue("client." + id.String() + ".prefetch_batches")
		hits += cl.Reg.CounterValue("client." + id.String() + ".cache.prefetch_hits")
	}
	if batches == 0 || hits == 0 {
		t.Fatalf("read-ahead never engaged: batches=%d hits=%d", batches, hits)
	}

	// And the whole contended run must be consistent.
	if errno := cl.Sync(0); errno != msg.OK {
		t.Fatalf("final sync: %v", errno)
	}
	cl.FinalCheck()
	if got := cl.Violations(); len(got) != 0 {
		t.Fatalf("violations under hot-file contention: %v", got)
	}
}

// An isolated reader full of shared, prefetched pages still obeys
// Theorem 3.1: its lease expiry (cache invalidated, read-ahead drained)
// strictly precedes the server's steal on the global event order.
func TestHotFileTheorem31ReaderIsolated(t *testing.T) {
	ring := trace.NewRing(16384)
	opts := cluster.DefaultOptions()
	opts.Clients = 3
	opts.Tracer = trace.New(ring)
	cl := cluster.New(opts)
	cl.Start()

	cfg := DefaultHotFile()
	cfg.Readers = []int{1, 2}
	cfg.Writer = -1 // read-only warm-up: readers hold shared locks
	PopulateHotFile(cl, cfg)

	hf := NewHotFile(cl, cfg)
	hf.Start()
	cl.RunFor(5 * time.Second)
	hf.Stop()
	if hf.Scans == 0 {
		t.Fatal("warm-up produced no scans")
	}
	if got := cl.Clients[1].Sub(0).Cache().ResidentPages(); got == 0 {
		t.Fatal("reader 1 cache empty after warm-up")
	}

	// Cut reader 1 off and have the writer demand the file exclusively.
	// The shared lock can't be recalled from the dead reader, so the
	// server must wait out the lease and steal.
	cl.IsolateClient(1)
	h, _ := cl.MustOpen(0, HotFilePath, true, false)
	if errno := cl.Write(0, h, 0, HotContent(cfg.Alphabet, 1)); errno != msg.OK {
		t.Fatalf("writer after isolation: %v", errno)
	}

	events := ring.Events()
	isolated := cluster.ClientID(1)

	// The reader walked the full four-phase state machine.
	phases := events.PhaseSequence(isolated)
	want := []string{"valid", "renewal", "suspect", "flush", "expired"}
	if !trace.HasSubsequence(phases, want) {
		t.Fatalf("reader phase sequence %v missing subsequence %v", phases, want)
	}

	// Theorem 3.1: client expiry strictly precedes the server's steal.
	if n := events.Count(trace.ByNode(cluster.ServerID(0)), trace.ByType(trace.EvStealFired), trace.ByPeer(isolated)); n != 1 {
		t.Fatalf("steal fired %d times, want 1", n)
	}
	if err := events.Precedes(
		trace.And(trace.ByNode(isolated), trace.ByType(trace.EvExpire)),
		trace.And(trace.ByNode(cluster.ServerID(0)), trace.ByType(trace.EvStealFired))); err != nil {
		t.Fatalf("Theorem 3.1 ordering: %v", err)
	}

	// Expiry tore the reader's cache down: nothing resident, nothing
	// (prefetched or otherwise) left to serve stale reads from.
	if got := cl.Clients[1].Sub(0).Cache().ResidentBytes(); got != 0 {
		t.Fatalf("isolated reader still holds %d resident bytes after expiry", got)
	}

	if errno := cl.Sync(0); errno != msg.OK {
		t.Fatalf("final sync: %v", errno)
	}
	cl.FinalCheck()
	if got := cl.Violations(); len(got) != 0 {
		t.Fatalf("violations: %v", got)
	}
}
