package cache

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/bufpool"
	"repro/internal/msg"
	"repro/internal/stats"
)

func TestLookupHitMiss(t *testing.T) {
	reg := stats.NewRegistry()
	c := New(reg, "c.")
	if c.Lookup(1, 0) != nil {
		t.Fatal("hit on empty cache")
	}
	c.Fill(1, 0, []byte("data"), 7)
	p := c.Lookup(1, 0)
	if p == nil || !bytes.Equal(p.Bytes(), []byte("data")) || p.Ver != 7 || p.Dirty {
		t.Fatalf("page = %+v", p)
	}
	if reg.CounterValue("c.cache.hits") != 1 || reg.CounterValue("c.cache.misses") != 1 {
		t.Fatal("hit/miss counters wrong")
	}
}

func TestWriteMarksDirty(t *testing.T) {
	reg := stats.NewRegistry()
	c := New(reg, "c.")
	c.Write(1, 0, []byte("v1"), 1)
	c.Write(1, 0, []byte("v2"), 2) // second write: still one dirty page
	c.Write(1, 1, []byte("w"), 3)
	if c.TotalDirty() != 2 {
		t.Fatalf("dirty = %d, want 2", c.TotalDirty())
	}
	o := c.Object(1)
	if o.DirtyCount() != 2 {
		t.Fatalf("object dirty = %d", o.DirtyCount())
	}
	p := o.Page(0)
	if !bytes.Equal(p.Bytes(), []byte("v2")) || p.Ver != 2 {
		t.Fatalf("page = %+v", p)
	}
	dirty := c.AppendDirtyPages(nil, 1)
	if len(dirty) != 2 {
		t.Fatalf("DirtyPages = %v", dirty)
	}
	if objs := c.AppendDirtyObjects(nil); len(objs) != 1 || objs[0] != 1 {
		t.Fatalf("DirtyObjects = %v", objs)
	}
}

func TestMarkClean(t *testing.T) {
	c := New(nil, "")
	c.Write(1, 0, []byte("v"), 1)
	c.MarkClean(1, 0)
	if c.TotalDirty() != 0 {
		t.Fatal("page still dirty")
	}
	if p := c.Object(1).Page(0); p.Dirty {
		t.Fatal("page flag still dirty")
	}
	c.MarkClean(1, 0) // idempotent
	c.MarkClean(9, 0) // unknown object: no-op
	if c.TotalDirty() != 0 {
		t.Fatal("idempotence broken")
	}
}

func TestDropDiscardsObject(t *testing.T) {
	reg := stats.NewRegistry()
	c := New(reg, "c.")
	c.Write(1, 0, []byte("v"), 1)
	c.Fill(2, 0, []byte("w"), 2)
	c.Drop(1)
	if c.Object(1) != nil || c.Len() != 1 {
		t.Fatal("drop did not remove object")
	}
	if reg.CounterValue("c.cache.invalidations") != 1 {
		t.Fatal("invalidation not counted")
	}
	c.Drop(99) // unknown: no-op
}

func TestInvalidateAllReportsLostDirty(t *testing.T) {
	c := New(nil, "")
	c.Write(1, 0, []byte("a"), 1)
	c.Write(1, 1, []byte("b"), 2)
	c.Fill(2, 0, []byte("c"), 3)
	if lost := c.InvalidateAll(); lost != 2 {
		t.Fatalf("lost = %d, want 2", lost)
	}
	if c.Len() != 0 || c.TotalDirty() != 0 {
		t.Fatal("cache not empty after InvalidateAll")
	}
	// Flushed first → nothing lost.
	c.Write(3, 0, []byte("d"), 4)
	c.MarkClean(3, 0)
	if lost := c.InvalidateAll(); lost != 0 {
		t.Fatalf("lost = %d, want 0 after flush", lost)
	}
}

func TestObjectMetadataFields(t *testing.T) {
	c := New(nil, "")
	o := c.Ensure(5)
	o.Attr = msg.Attr{Ino: 5, Size: 100}
	o.HaveAttr = true
	o.Map = msg.Extents{{Disk: 9, Start: 3, Len: 1}}
	o.HaveMap = true
	got := c.Object(5)
	if !got.HaveAttr || got.Attr.Size != 100 || got.Map.Len() != 1 {
		t.Fatalf("object = %+v", got)
	}
	// Ensure is idempotent.
	if c.Ensure(5) != got {
		t.Fatal("Ensure created a fresh object")
	}
}

func TestFillCopiesData(t *testing.T) {
	c := New(nil, "")
	buf := []byte("abc")
	c.Fill(1, 0, buf, 1)
	buf[0] = 'Z'
	if c.Object(1).Page(0).Bytes()[0] != 'a' {
		t.Fatal("Fill aliased caller's buffer")
	}
}

// Property: dirty gauge equals the sum of per-object dirty counts under
// any interleaving of writes, cleans, and drops.
func TestDirtyAccountingProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		reg := stats.NewRegistry()
		c := New(reg, "p.")
		for _, op := range ops {
			ino := msg.ObjectID(op % 5)
			idx := uint64((op >> 3) % 4)
			switch op % 3 {
			case 0:
				c.Write(ino, idx, []byte{byte(op)}, uint64(op))
			case 1:
				c.MarkClean(ino, idx)
			case 2:
				c.Drop(ino)
			}
		}
		want := 0
		for ino := msg.ObjectID(0); ino < 5; ino++ {
			if o := c.Object(ino); o != nil {
				want += o.DirtyCount()
			}
		}
		return c.TotalDirty() == want &&
			reg.Gauge("p.cache.dirty_pages").Value() == int64(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDropPagesFrom(t *testing.T) {
	c := New(nil, "")
	c.Fill(1, 0, []byte("a"), 1)
	c.Write(1, 1, []byte("b"), 2)
	c.Write(1, 2, []byte("c"), 3)
	c.DropPagesFrom(1, 1)
	o := c.Object(1)
	if o.Page(0) == nil {
		t.Fatal("page below the cut removed")
	}
	if o.Page(1) != nil || o.Page(2) != nil {
		t.Fatal("truncated pages survived")
	}
	if c.TotalDirty() != 0 {
		t.Fatalf("dirty accounting = %d after truncation", c.TotalDirty())
	}
	c.DropPagesFrom(99, 0) // unknown object: no-op
}

func TestLRUEvictionCleanOnly(t *testing.T) {
	reg := stats.NewRegistry()
	c := NewWithLimits(reg, "e.", 3, 0)
	c.Fill(1, 0, []byte("a"), 1)  // oldest clean
	c.Write(1, 1, []byte("b"), 2) // dirty: pinned
	c.Fill(1, 2, []byte("c"), 3)
	if c.ResidentPages() != 3 {
		t.Fatalf("resident = %d", c.ResidentPages())
	}
	// Touch page 0 so page 2 becomes the LRU clean page.
	c.Lookup(1, 0)
	c.Fill(1, 3, []byte("d"), 4) // over capacity: evict page 2
	if c.Object(1).Page(2) != nil {
		t.Fatal("LRU clean page not evicted")
	}
	if c.Object(1).Page(0) == nil || c.Object(1).Page(1) == nil || c.Object(1).Page(3) == nil {
		t.Fatal("wrong page evicted")
	}
	if reg.CounterValue("e.cache.evictions") != 1 {
		t.Fatal("eviction not counted")
	}
}

func TestLRUNeverEvictsDirty(t *testing.T) {
	c := NewWithLimits(nil, "", 2, 0)
	c.Write(1, 0, []byte("a"), 1)
	c.Write(1, 1, []byte("b"), 2)
	c.Write(1, 2, []byte("c"), 3) // all dirty: over budget but pinned
	if c.TotalDirty() != 3 {
		t.Fatalf("dirty = %d — an acknowledged write was dropped", c.TotalDirty())
	}
	// Flushing frees them for eviction.
	c.MarkClean(1, 0)
	c.Fill(1, 3, []byte("d"), 4)
	if c.Object(1).Page(0) != nil {
		t.Fatal("flushed page not evicted under pressure")
	}
}

func TestLRUDropMaintainsList(t *testing.T) {
	c := NewWithLimits(nil, "", 4, 0)
	c.Fill(1, 0, []byte("a"), 1)
	c.Fill(2, 0, []byte("b"), 2)
	c.Drop(1)
	if c.ResidentPages() != 1 {
		t.Fatalf("resident = %d after drop", c.ResidentPages())
	}
	c.InvalidateAll()
	if c.ResidentPages() != 0 {
		t.Fatalf("resident = %d after invalidate", c.ResidentPages())
	}
}

// TestRemovedPageHeaderIsReused: whichever way a page leaves — eviction,
// a refill of its index, DropPagesFrom, Drop, InvalidateAll — its header
// is parked, and the next page filed, by a fill or a write, takes it
// back. Under tankdebug the parked header reads poison until then: its
// version and index are 0xDB… and Bytes panics, so a holder that kept
// the pointer past the removal fails there.
func TestRemovedPageHeaderIsReused(t *testing.T) {
	for _, tc := range []struct {
		name   string
		remove func(c *Cache)
	}{
		{"evict", func(c *Cache) { c.Fill(2, 0, []byte("b"), 2) }},
		{"drop pages from", func(c *Cache) { c.DropPagesFrom(1, 0) }},
		{"drop", func(c *Cache) { c.Drop(1) }},
		{"invalidate", func(c *Cache) { c.InvalidateAll() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewWithLimits(nil, "", 1, 0)
			c.Fill(1, 0, []byte("a"), 1)
			p := c.Object(1).Page(0)
			tc.remove(c)
			if c.Object(1) != nil && c.Object(1).Page(0) != nil {
				t.Fatal("the page was not removed")
			}
			if bufpool.Debug {
				if p.Ver != poisonPage || p.idx != poisonPage || p.obj != nil {
					t.Errorf("parked header not poisoned: %+v", *p)
				}
				func() {
					defer func() {
						if recover() == nil {
							t.Error("Bytes of a parked header did not panic")
						}
					}()
					_ = p.Bytes()
				}()
			}
			c.Write(3, 7, []byte("c"), 3)
			if q := c.Object(3).Page(7); q != p || !q.Dirty || q.Ver != 3 || !bytes.Equal(q.Bytes(), []byte("c")) {
				t.Fatalf("the next page is %p %+v, want the parked header %p holding the write", q, *q, p)
			}
		})
	}
	// A refill of a clean index takes its own header straight back.
	c := New(nil, "")
	c.Fill(1, 0, []byte("a"), 1)
	p := c.Object(1).Page(0)
	c.Fill(1, 0, []byte("b"), 2)
	if q := c.Object(1).Page(0); q != p || q.Ver != 2 || !bytes.Equal(q.Bytes(), []byte("b")) {
		t.Fatalf("refill: page %p %+v, want header %p reused", q, *q, p)
	}
}

// TestDroppedObjectRecordIsReused: Drop parks the object's record and
// the next Ensure, of any file, takes it back as a zero record with
// empty page tables, whatever the one dropped held. Under tankdebug the
// parked record reads poison until then, and using it panics. A record
// whose page table outgrew maxParkedEntries is not parked.
func TestDroppedObjectRecordIsReused(t *testing.T) {
	c := New(nil, "")
	c.Fill(1, 0, []byte("a"), 1)
	c.Write(1, 1, []byte("b"), 2)
	o := c.Object(1)
	o.Attr, o.HaveAttr = msg.Attr{Ino: 1, Size: 8192, Version: 3}, true
	o.Map, o.HaveMap, o.Fetched = msg.Extents{{Disk: 1000, Start: 7, Len: 2}}, true, 1
	o.evicted = true
	c.Drop(1)
	if bufpool.Debug {
		if o.Attr.Ino != poisonPage || o.Attr.Size != poisonPage || !o.parked {
			t.Errorf("parked record not poisoned: %+v", o.Attr)
		}
		for name, use := range map[string]func(){
			"Page": func() { o.Page(0) }, "Evicted": func() { o.Evicted() }, "DirtyCount": func() { o.DirtyCount() },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s of a parked record did not panic", name)
					}
				}()
				use()
			}()
		}
	}
	q := c.Ensure(2)
	if q != o {
		t.Fatalf("Ensure made record %p, want the parked %p", q, o)
	}
	if q.HaveAttr || q.HaveMap || q.Fetched != 0 || q.Evicted() || q.Attr != (msg.Attr{}) || q.Map.Len() != 0 ||
		len(q.pages) != 0 || len(q.dirtyKeys) != 0 || q.DirtyCount() != 0 {
		t.Fatalf("the reused record is not zero: %+v", *q)
	}
	if c.Object(1) != nil || c.ResidentPages() != 0 || c.TotalDirty() != 0 {
		t.Fatal("the dropped object left something behind")
	}

	for idx := uint64(0); idx <= maxParkedEntries; idx++ {
		c.Fill(2, idx, []byte{byte(idx)}, 1)
	}
	c.DropPagesFrom(2, 1) // the table keeps its size once it has grown
	c.Drop(2)
	if c.Ensure(3) == o {
		t.Fatal("a record whose page table grew past the bound was parked")
	}
	for ino := msg.ObjectID(10); ino < 10+2*maxSpareObjects; ino++ {
		c.Ensure(ino)
	}
	c.InvalidateAll()
	if len(c.spare) != maxSpareObjects {
		t.Fatalf("%d records parked, want the bound %d", len(c.spare), maxSpareObjects)
	}
}

// raceOn is set in a build with the race detector (race_on_test.go).
var raceOn bool

// TestHandoffCycleAllocs pins what a lock handoff does to the cache of
// the client that gives the file up and takes it back: Drop, Ensure,
// Fill, Write and MarkClean allocate nothing once a record and a page
// header are parked.
func TestHandoffCycleAllocs(t *testing.T) {
	if bufpool.Debug {
		t.Skip("tankdebug hooks allocate by design")
	}
	if raceOn {
		t.Skip("the count is not repeatable under the race detector")
	}
	c := New(nil, "")
	data := make([]byte, 4096)
	ino := msg.ObjectID(1)
	cycle := func() {
		c.Drop(ino)
		ino++
		c.Ensure(ino).HaveAttr = true
		data[0]++
		c.Fill(ino, 0, data, 1)
		data[0]++
		c.Write(ino, 0, data, 2)
		c.MarkClean(ino, 0)
	}
	cycle()
	if got := testing.AllocsPerRun(1000, cycle); got != 0 {
		t.Errorf("Drop/Ensure/Fill/Write/MarkClean: %v allocs, want 0", got)
	}
}
