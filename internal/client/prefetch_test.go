package client_test

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/msg"
	"repro/internal/trace"
)

// populateBlocks writes n distinct blocks to path from client w and
// flushes them to the SAN.
func populateBlocks(t *testing.T, cl *cluster.Cluster, w int, path string, n int) {
	t.Helper()
	h, _ := cl.MustOpen(w, path, true, true)
	data := make([]byte, cluster.BlockSize)
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint64(data, uint64(i))
		if e := cl.Write(w, h, uint64(i), data); e != msg.OK {
			t.Fatalf("populate write %d: %v", i, e)
		}
	}
	if e := cl.Sync(w); e != msg.OK {
		t.Fatalf("populate sync: %v", e)
	}
}

// scanSANReads runs a full sequential scan of path's n blocks on client
// r and returns the SAN messages the scan sent.
func scanSANReads(t *testing.T, cl *cluster.Cluster, r int, path string, n int) uint64 {
	t.Helper()
	h, _ := cl.MustOpen(r, path, false, false)
	before := cl.Reg.CounterValue("net.san.sent.san-io")
	data := make([]byte, 8)
	for i := 0; i < n; i++ {
		got, e := cl.Read(r, h, uint64(i))
		if e != msg.OK {
			t.Fatalf("read %d: %v", i, e)
		}
		binary.BigEndian.PutUint64(data, uint64(i))
		if string(got[:8]) != string(data) {
			t.Fatalf("block %d content wrong", i)
		}
	}
	return cl.Reg.CounterValue("net.san.sent.san-io") - before
}

// A sequential scan with read-ahead takes fewer SAN round trips than
// the same scan without it (blocks arrive in vectored batches), and the
// prefetched pages are actually the ones serving the reads.
func TestSequentialScanPrefetchReducesSANRoundTrips(t *testing.T) {
	const blocks = 24

	run := func(prefetch int) (msgs uint64, hits uint64, batches uint64) {
		opts := cluster.DefaultOptions()
		opts.Prefetch = prefetch
		cl := cluster.New(opts)
		cl.Start()
		populateBlocks(t, cl, 0, "/seq", blocks)
		msgs = scanSANReads(t, cl, 1, "/seq", blocks)
		hits = cl.Reg.CounterValue("client.n11.cache.prefetch_hits")
		batches = cl.Reg.CounterValue("client.n11.prefetch_batches")
		return
	}

	offMsgs, offHits, offBatches := run(-1)
	onMsgs, onHits, onBatches := run(0) // 0 = the default window

	if offHits != 0 || offBatches != 0 {
		t.Fatalf("disabled prefetch still prefetched: hits=%d batches=%d", offHits, offBatches)
	}
	if offMsgs != blocks {
		t.Fatalf("baseline scan sent %d SAN messages, want %d scalar reads", offMsgs, blocks)
	}
	if onBatches == 0 || onHits == 0 {
		t.Fatalf("prefetch never engaged: batches=%d hits=%d", onBatches, onHits)
	}
	if onMsgs >= offMsgs {
		t.Fatalf("prefetch did not reduce SAN round trips: %d with, %d without", onMsgs, offMsgs)
	}
}

// A re-scan over a warm cache issues no read-ahead at all: every block
// is already resident, so the candidate windows are empty.
func TestWarmRescanIssuesNoPrefetch(t *testing.T) {
	const blocks = 12
	opts := cluster.DefaultOptions()
	cl := cluster.New(opts)
	cl.Start()
	populateBlocks(t, cl, 0, "/warm", blocks)
	scanSANReads(t, cl, 1, "/warm", blocks)
	batches := cl.Reg.CounterValue("client.n11.prefetch_batches")
	if got := scanSANReads(t, cl, 1, "/warm", blocks); got != 0 {
		t.Fatalf("warm re-scan sent %d SAN messages", got)
	}
	if cl.Reg.CounterValue("client.n11.prefetch_batches") != batches {
		t.Fatal("warm re-scan issued read-ahead for resident blocks")
	}
}

// The byte quota bounds resident cache bytes end to end through the
// options plumbing, and eviction under the quota still refetches
// correctly.
func TestCacheQuotaBoundsResidentBytes(t *testing.T) {
	const blocks = 8
	quota := int64(4 * cluster.BlockSize)
	opts := cluster.DefaultOptions()
	opts.CacheQuota = quota
	opts.Prefetch = -1 // isolate the quota behaviour
	cl := cluster.New(opts)
	cl.Start()
	populateBlocks(t, cl, 0, "/quota", blocks)
	c := cl.Clients[0].Sub(0)
	if got := c.Cache().ResidentBytes(); got > quota {
		t.Fatalf("resident bytes %d over quota %d after flush", got, quota)
	}
	// Random-ish re-reads: everything stays servable, quota stays bounded.
	h, _ := cl.MustOpen(0, "/quota", false, false)
	for i := 0; i < blocks; i++ {
		idx := uint64((i * 5) % blocks)
		if _, e := cl.Read(0, h, idx); e != msg.OK {
			t.Fatalf("read %d: %v", idx, e)
		}
		if got := c.Cache().ResidentBytes(); got > quota {
			t.Fatalf("resident bytes %d over quota %d", got, quota)
		}
	}
	if cl.Reg.CounterValue("client.n10.cache.evictions") == 0 {
		t.Fatal("quota never evicted")
	}
}

// rampCluster boots an installation whose EvPrefetch events land in the
// returned ring, and populates path with n blocks from client 0.
func rampCluster(t *testing.T, opts cluster.Options, path string, n int) (*cluster.Cluster, *trace.Ring) {
	t.Helper()
	ring := trace.NewRing(1 << 16)
	opts.Tracer = trace.New(ring)
	cl := cluster.New(opts)
	cl.Start()
	populateBlocks(t, cl, 0, path, n)
	return cl, ring
}

// prefetchEvents returns client i's read-ahead batches issued after
// event sequence number after.
func prefetchEvents(ring *trace.Ring, i int, after uint64) trace.Stream {
	return ring.Events().Filter(trace.ByNode(cluster.ClientID(i)), trace.ByType(trace.EvPrefetch),
		func(e trace.Event) bool { return e.Seq > after })
}

// wantRamp checks that evs are exactly the batches of consecutive
// windows of the given sizes, the first starting at block start: every
// window's batches (one per disk) add up to its size, in issue order,
// and nothing else was issued.
func wantRamp(t *testing.T, evs trace.Stream, start uint64, sizes ...int) {
	t.Helper()
	for w, size := range sizes {
		sum := 0
		for len(evs) > 0 && evs[0].Block >= start && evs[0].Block < start+uint64(size) {
			var n int
			if _, err := fmt.Sscanf(evs[0].Note, "window=%d", &n); err != nil {
				t.Fatalf("prefetch note %q: %v", evs[0].Note, err)
			}
			sum += n
			evs = evs[1:]
		}
		if sum != size {
			t.Fatalf("window %d at block %d: %d blocks issued, want %d (remaining events %v)", w, start, sum, size, evs)
		}
		start += uint64(size)
	}
	if len(evs) != 0 {
		t.Fatalf("read-ahead issued beyond the expected windows: %v", evs)
	}
}

// readCheck reads block idx on client i and checks the stamp
// populateBlocks wrote.
func readCheck(t *testing.T, cl *cluster.Cluster, i int, h msg.Handle, idx uint64) {
	t.Helper()
	got, e := cl.Read(i, h, idx)
	if e != msg.OK {
		t.Fatalf("read %d: %v", idx, e)
	}
	if binary.BigEndian.Uint64(got) != idx {
		t.Fatalf("block %d holds stamp %d", idx, binary.BigEndian.Uint64(got))
	}
}

// quiet fails if client i has anything left over from its read-ahead
// once what is on the wire has landed.
func quiet(t *testing.T, cl *cluster.Cluster, i int) {
	t.Helper()
	cl.RunFor(10 * time.Millisecond)
	c := cl.Clients[i].Sub(0)
	if c.ParkedReads() != 0 || c.PrefetchInflight() != 0 || c.Inflight() != 0 {
		t.Fatalf("left behind: parked reads %d, blocks in flight %d, operations %d",
			c.ParkedReads(), c.PrefetchInflight(), c.Inflight())
	}
}

// A cold scan ramps its window 2, 4, 8, 16, 32 and holds it there; a
// window is issued as the reader enters the one before it, so at most
// two are outstanding.
func TestReadAheadWindowRamps(t *testing.T) {
	const blocks = 128
	cl, ring := rampCluster(t, cluster.DefaultOptions(), "/ramp", blocks)
	// What is on the wire each time a batch is issued (its own blocks
	// included).
	var onWire []int
	cl.Opts.Tracer.Attach(trace.SinkFunc(func(e trace.Event) {
		if e.Type == trace.EvPrefetch && e.Node == cluster.ClientID(1) {
			onWire = append(onWire, cl.Clients[1].Sub(0).PrefetchInflight())
		}
	}))
	h, _ := cl.MustOpen(1, "/ramp", false, false)
	for i := uint64(0); i < blocks; i++ {
		readCheck(t, cl, 1, h, i)
	}
	wantRamp(t, prefetchEvents(ring, 1, 0), 2, 2, 4, 8, 16, 32, 32, 32)
	for i, n := range onWire {
		if n > 2*32 {
			t.Fatalf("batch %d issued with %d blocks on the wire: more than two windows", i, n)
		}
	}
	if hits := cl.Reg.CounterValue("client.n11.cache.prefetch_hits"); hits != blocks-2 {
		t.Fatalf("prefetch_hits = %d, want %d: every block after the first two", hits, blocks-2)
	}
	if cl.Reg.CounterValue("client.n11.cache.prefetch_wasted") != 0 {
		t.Fatal("a cold scan wasted read-ahead")
	}
	quiet(t, cl, 1)
}

// Whatever breaks the run or takes the pages restarts the ramp at 2.
func TestReadAheadCollapses(t *testing.T) {
	const blocks = 128
	scanTo := func(t *testing.T, cl *cluster.Cluster, h msg.Handle, from, to uint64) {
		t.Helper()
		for i := from; i < to; i++ {
			readCheck(t, cl, 1, h, i)
		}
	}
	mark := func(ring *trace.Ring) uint64 {
		evs := ring.Events()
		if len(evs) == 0 {
			return 0
		}
		return evs[len(evs)-1].Seq
	}

	t.Run("seek", func(t *testing.T) {
		cl, ring := rampCluster(t, cluster.DefaultOptions(), "/c", blocks)
		h, _ := cl.MustOpen(1, "/c", false, false)
		scanTo(t, cl, h, 0, 20) // windows out to block 62 are issued
		at := mark(ring)
		scanTo(t, cl, h, 80, 88)
		wantRamp(t, prefetchEvents(ring, 1, at), 82, 2, 4, 8)
		quiet(t, cl, 1)
	})

	t.Run("demand", func(t *testing.T) {
		cl, ring := rampCluster(t, cluster.DefaultOptions(), "/c", blocks)
		h, _ := cl.MustOpen(1, "/c", false, false)
		scanTo(t, cl, h, 0, 20)
		// Client 0 rewrites a block: the scanner's lock and pages go.
		hw, _ := cl.MustOpen(0, "/c", true, false)
		data := make([]byte, cluster.BlockSize)
		binary.BigEndian.PutUint64(data, 100)
		if e := cl.Write(0, hw, 100, data); e != msg.OK {
			t.Fatal(e)
		}
		if n := cl.Clients[1].Sub(0).ReadAheadRecords(); n != 0 {
			t.Fatalf("%d detector records survived the demand", n)
		}
		at := mark(ring)
		scanTo(t, cl, h, 20, 28)
		wantRamp(t, prefetchEvents(ring, 1, at), 22, 2, 4, 8)
		quiet(t, cl, 1)
	})

	t.Run("lease expiry", func(t *testing.T) {
		cl, ring := rampCluster(t, cluster.DefaultOptions(), "/c", blocks)
		h, _ := cl.MustOpen(1, "/c", false, false)
		scanTo(t, cl, h, 0, 20)
		// Heal as soon as the lease has run out: a Rejoin answered more than
		// τ after it was first sent grants a lease that is already over.
		cl.IsolateClient(1)
		for i := 0; i < 200 && cl.Clients[1].Registered(); i++ {
			cl.RunFor(100 * time.Millisecond)
		}
		if n := cl.Clients[1].Sub(0).ReadAheadRecords(); n != 0 || cl.Clients[1].Sub(0).Cache().ResidentPages() != 0 {
			t.Fatalf("after expiry: %d detector records, %d pages", n, cl.Clients[1].Sub(0).Cache().ResidentPages())
		}
		quiet(t, cl, 1)
		cl.HealControl()
		for i := 0; i < 100 && !cl.Clients[1].Registered(); i++ {
			cl.RunFor(100 * time.Millisecond)
		}
		h, _ = cl.MustOpen(1, "/c", false, false)
		at := mark(ring)
		scanTo(t, cl, h, 20, 28)
		wantRamp(t, prefetchEvents(ring, 1, at), 22, 2, 4, 8)
		quiet(t, cl, 1)
	})

	t.Run("last close", func(t *testing.T) {
		cl, _ := rampCluster(t, cluster.DefaultOptions(), "/c", blocks)
		h1, _ := cl.MustOpen(1, "/c", false, false)
		h2, _ := cl.MustOpen(1, "/c", false, false)
		scanTo(t, cl, h1, 0, 4)
		if e := cl.Close(1, h1); e != msg.OK {
			t.Fatal(e)
		}
		if n := cl.Clients[1].Sub(0).ReadAheadRecords(); n != 1 {
			t.Fatalf("%d detector records with a handle still open, want 1", n)
		}
		if e := cl.Close(1, h2); e != msg.OK {
			t.Fatal(e)
		}
		if n := cl.Clients[1].Sub(0).ReadAheadRecords(); n != 0 {
			t.Fatalf("%d detector records after the last close", n)
		}
	})
}

// Config.Prefetch is the largest window; the cache's page budget holds
// it to a quarter of itself.
func TestReadAheadWindowCaps(t *testing.T) {
	const blocks = 64
	scan := func(t *testing.T, opts cluster.Options) (*cluster.Cluster, trace.Stream) {
		t.Helper()
		cl, ring := rampCluster(t, opts, "/cap", blocks)
		h, _ := cl.MustOpen(1, "/cap", false, false)
		for i := uint64(0); i < 32; i++ {
			readCheck(t, cl, 1, h, i)
		}
		quiet(t, cl, 1)
		return cl, prefetchEvents(ring, 1, 0)
	}

	t.Run("three", func(t *testing.T) {
		opts := cluster.DefaultOptions()
		opts.Prefetch = 3
		_, evs := scan(t, opts)
		// Reading block 31 enters the window at 31 and issues the one at 34.
		wantRamp(t, evs, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3)
	})

	t.Run("off", func(t *testing.T) {
		opts := cluster.DefaultOptions()
		opts.Prefetch = -1
		_, evs := scan(t, opts)
		wantRamp(t, evs, 2)
	})

	t.Run("sixteen pages", func(t *testing.T) {
		for name, set := range map[string]func(*cluster.Options){
			"CacheMaxPages": func(o *cluster.Options) { o.CacheMaxPages = 16 },
			"CacheQuota":    func(o *cluster.Options) { o.CacheQuota = 16 * cluster.BlockSize },
		} {
			opts := cluster.DefaultOptions()
			set(&opts)
			cl, evs := scan(t, opts)
			// Reading block 28 enters the window at 28 and issues the one at 32.
			wantRamp(t, evs, 2, 2, 4, 4, 4, 4, 4, 4, 4, 4)
			if w := cl.Reg.CounterValue("client.n11.cache.prefetch_wasted"); w != 0 {
				t.Fatalf("%s: a 16-page cache evicted %d pages of its own read-ahead", name, w)
			}
			if got := cl.Clients[1].Sub(0).Cache().ResidentPages(); got > 16 {
				t.Fatalf("%s: %d pages resident", name, got)
			}
		}
	})
}
