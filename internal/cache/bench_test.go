package cache

import (
	"encoding/binary"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/msg"
	"repro/internal/stats"
)

// benchmarkEvictChurn fills an endless stream of distinct clean pages
// through a cache whose budget is already consumed by dirtyTail pinned
// dirty pages, so every fill evicts exactly one clean page at steady
// state. The historical evictIfNeeded restarted a back-to-front LRU
// scan per eviction and the dirty run sat at the tail, making each
// eviction O(dirtyTail); keeping dirty pages off the clean-LRU list
// makes it O(1), so ns/op should be flat across these sizes.
func benchmarkEvictChurn(b *testing.B, dirtyTail int) {
	reg := stats.NewRegistry()
	c := NewWithLimits(reg, "b.", dirtyTail+8, 0)
	data := make([]byte, 512)
	for i := 0; i < dirtyTail; i++ {
		binary.BigEndian.PutUint64(data, uint64(i))
		c.Write(1, uint64(i), data, uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Distinct content per fill (no dedup): the steady-state cost is
		// intern + install + one eviction.
		binary.BigEndian.PutUint64(data, uint64(i))
		data[8] = 0xff // never collides with the dirty-tail contents
		c.Fill(2, uint64(i), data, uint64(i))
	}
}

func BenchmarkEvictDirtyTail0(b *testing.B)    { benchmarkEvictChurn(b, 0) }
func BenchmarkEvictDirtyTail1024(b *testing.B) { benchmarkEvictChurn(b, 1024) }
func BenchmarkEvictDirtyTail8192(b *testing.B) { benchmarkEvictChurn(b, 8192) }

// BenchmarkFillDedup measures the dedup'd fill path: every object
// caches the same 16 hot contents, so after the first round each fill
// is a hash + byte-compare + refcount bump sharing a resident block.
// dedup_hit_ratio and bytes_per_page quantify the sharing.
func BenchmarkFillDedup(b *testing.B) {
	reg := stats.NewRegistry()
	c := New(reg, "b.")
	contents := make([][]byte, 16)
	for i := range contents {
		contents[i] = make([]byte, 4096)
		binary.BigEndian.PutUint64(contents[i], uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Fill(msg.ObjectID(i%64+1), uint64(i%16), contents[i%16], uint64(i))
	}
	b.StopTimer()
	fills := uint64(b.N)
	if fills > 0 {
		b.ReportMetric(float64(reg.CounterValue("b.cache.dedup_hits"))/float64(fills), "dedup_hit_ratio")
	}
	if c.ResidentPages() > 0 {
		b.ReportMetric(float64(c.ResidentBytes())/float64(c.ResidentPages()), "bytes_per_page")
	}
}

// BenchmarkLookupHit is the in-cache read fast path: the cost a cached
// read pays before the client copies the block out.
func BenchmarkLookupHit(b *testing.B) {
	c := New(nil, "")
	data := make([]byte, 4096)
	c.Fill(1, 0, data, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Lookup(1, 0) == nil {
			b.Fatal("miss")
		}
	}
}

// BenchmarkFillEvict4K is a fill into a cache held at its byte quota:
// hash a 4 KiB page nobody else holds, copy it in, evict the oldest.
// What a cold sequential scan pays per block once the cache is full.
func BenchmarkFillEvict4K(b *testing.B) {
	const quota = 1024 * 4096
	c := NewWithLimits(nil, "b.", 0, quota)
	data := make([]byte, 4096)
	next := uint64(0)
	fillOne := func() {
		binary.BigEndian.PutUint64(data, next)
		c.Fill(1, next, data, 1)
		next++
	}
	for c.ResidentBytes() < quota {
		fillOne()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fillOne()
	}
}

// BenchmarkWriteCow4K is a write over a clean 4 KiB page followed by
// its write-back: the page leaves the content store onto a private
// buffer, and MarkClean hashes it back in.
func BenchmarkWriteCow4K(b *testing.B) {
	c := New(nil, "b.")
	data := make([]byte, 4096)
	c.Fill(1, 0, data, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint64(data, uint64(i))
		c.Write(1, 0, data, uint64(i))
		c.MarkClean(1, 0)
	}
}

// TestHitWriteFillAllocs pins in the tier-1 suite the allocation counts
// the three benchmarks above report: a Lookup hit and a copy-on-write
// Write with its write-back allocate nothing, and neither does a Fill
// into a full cache: its Page is the header eviction just parked (it
// allocated that Page before headers were reused).
func TestHitWriteFillAllocs(t *testing.T) {
	if bufpool.Debug {
		t.Skip("tankdebug hooks allocate by design")
	}
	data := make([]byte, 4096)
	c := New(nil, "")
	c.Fill(1, 0, data, 1)
	if got := testing.AllocsPerRun(1000, func() {
		if c.Lookup(1, 0) == nil {
			t.Fatal("miss")
		}
	}); got != 0 {
		t.Errorf("Lookup hit: %v allocs, want 0", got)
	}
	i := uint64(0)
	if got := testing.AllocsPerRun(1000, func() {
		i++
		binary.BigEndian.PutUint64(data, i)
		c.Write(1, 0, data, i)
		c.MarkClean(1, 0)
	}); got != 0 {
		t.Errorf("copy-on-write Write: %v allocs, want 0", got)
	}
	const quota = 64 * 4096
	full := NewWithLimits(nil, "", 0, quota)
	next := uint64(0)
	fillOne := func() {
		binary.BigEndian.PutUint64(data, next)
		full.Fill(1, next, data, 1)
		next++
	}
	for full.ResidentBytes() < quota {
		fillOne()
	}
	if got := testing.AllocsPerRun(1000, fillOne); got != 0 {
		t.Errorf("Fill with eviction: %v allocs, want 0", got)
	}
}
