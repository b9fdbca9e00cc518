package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/msg"
	"repro/internal/trace"
)

// sanSnapshot captures every block of every disk: contents and version
// stamp — the SAN's entire durable state.
type sanSnapshot map[msg.NodeID]map[uint64]string

func snapshotSAN(cl *Cluster) sanSnapshot {
	out := make(sanSnapshot)
	for _, d := range cl.Disks {
		blocks := make(map[uint64]string)
		for b := uint64(0); b < d.Capacity(); b++ {
			if data, ver, ok := d.PeekBlock(b); ok {
				blocks[b] = fmt.Sprintf("v%d:%x", ver, data)
			}
		}
		out[d.ID()] = blocks
	}
	return out
}

// runFlushPattern drives one cluster through a randomized dirty-page
// pattern — several files, random pages, some pages re-dirtied across an
// intermediate sync — and returns the SAN state after the final sync.
// The op sequence depends only on seed, never on batch, so any state
// difference between batch settings is the flush path's fault.
func runFlushPattern(t *testing.T, seed int64, batch int) sanSnapshot {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	opts := DefaultOptions()
	opts.Seed = seed
	opts.Disks = 3
	opts.DiskBlocks = 512
	opts.FlushBatch = batch
	cl := New(opts)
	cl.Start()

	nfiles := 1 + rng.Intn(4)
	handles := make([]msg.Handle, nfiles)
	for f := 0; f < nfiles; f++ {
		h, _ := cl.MustOpen(0, fmt.Sprintf("/f%d", f), true, true)
		handles[f] = h
	}
	write := func(f int, page uint64, fill byte) {
		if errno := cl.Write(0, handles[f], page, block(fill)); errno != msg.OK {
			t.Fatalf("write f%d page %d: %v", f, page, errno)
		}
	}
	for f := 0; f < nfiles; f++ {
		for _, page := range rng.Perm(64)[:1+rng.Intn(48)] {
			write(f, uint64(page), byte('a'+rng.Intn(26)))
		}
	}
	// Intermediate sync, then re-dirty a subset: in-flight-version
	// handling (MarkClean only when the version still matches) must not
	// depend on how the flush was batched.
	if errno := cl.Sync(0); errno != msg.OK {
		t.Fatalf("mid sync: %v", errno)
	}
	for f := 0; f < nfiles; f++ {
		for _, page := range rng.Perm(64)[:rng.Intn(24)] {
			write(f, uint64(page), byte('A'+rng.Intn(26)))
		}
	}
	if errno := cl.Sync(0); errno != msg.OK {
		t.Fatalf("final sync: %v", errno)
	}
	for i := range cl.Clients {
		if dirty := cl.Clients[i].Sub(0).Cache().TotalDirty(); dirty != 0 {
			t.Fatalf("client %d still has %d dirty pages after sync", i, dirty)
		}
	}
	cl.FinalCheck()
	if got := cl.Violations(); len(got) != 0 {
		t.Fatalf("violations (batch=%d): %v", batch, got)
	}
	return snapshotSAN(cl)
}

// TestFlushCoalescingEquivalence is the tentpole's safety property:
// whatever the batch size, a flush leaves the SAN byte-identical (data
// AND version stamps) to the legacy per-page write path.
func TestFlushCoalescingEquivalence(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		seed := int64(1000 + trial)
		rng := rand.New(rand.NewSource(seed))
		batch := 2 + rng.Intn(63)
		perPage := runFlushPattern(t, seed, 1)
		coalesced := runFlushPattern(t, seed, batch)
		if len(perPage) != len(coalesced) {
			t.Fatalf("trial %d: disk sets differ", trial)
		}
		for diskID, want := range perPage {
			got := coalesced[diskID]
			if len(got) != len(want) {
				t.Fatalf("trial %d (batch=%d): disk %v has %d written blocks per-page, %d coalesced",
					trial, batch, diskID, len(want), len(got))
			}
			for b, w := range want {
				if got[b] != w {
					t.Fatalf("trial %d (batch=%d): disk %v block %d differs:\nper-page  %.60s\ncoalesced %.60s",
						trial, batch, diskID, b, w, got[b])
				}
			}
		}
	}
}

// traceRun executes a fixed default-config scenario (burst writes from
// two clients, syncs, a cross-client read forcing a demand flush) and
// returns the full trace record.
func traceRun(t *testing.T) []string {
	t.Helper()
	ring := trace.NewRing(1 << 14)
	opts := DefaultOptions()
	opts.Tracer = trace.New(ring)
	cl := New(opts)
	cl.Start()
	h0, _ := cl.MustOpen(0, "/a", true, true)
	for i := 0; i < 16; i++ {
		if errno := cl.Write(0, h0, uint64(i), block(byte('a'+i))); errno != msg.OK {
			t.Fatalf("write %d: %v", i, errno)
		}
	}
	if errno := cl.Sync(0); errno != msg.OK {
		t.Fatalf("sync: %v", errno)
	}
	for i := 0; i < 8; i++ {
		cl.Write(0, h0, uint64(i), block(byte('A'+i)))
	}
	// The reader's demand triggers a vectored demand-compliance flush.
	h1, _ := cl.MustOpen(1, "/a", false, false)
	if _, errno := cl.Read(1, h1, 3); errno != msg.OK {
		t.Fatalf("read: %v", errno)
	}
	events := ring.Events()
	out := make([]string, len(events))
	for i, e := range events {
		out[i] = fmt.Sprintf("%+v", e)
	}
	return out
}

// TestDefaultConfigTraceDeterministic: with vectored flushing on by
// default, two identical default-config runs still produce an identical
// event record — batching must not introduce nondeterminism.
func TestDefaultConfigTraceDeterministic(t *testing.T) {
	a := traceRun(t)
	b := traceRun(t)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at event %d:\n%s\n%s", i, a[i], b[i])
		}
	}
	// And the batched flush actually happened: the burst sync must have
	// emitted at least one vectored-write disk event.
	found := false
	for _, line := range a {
		if bytes.Contains([]byte(line), []byte("writev n=")) {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no vectored write in the default-config trace — coalescing is not on by default")
	}
}
