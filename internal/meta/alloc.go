package meta

import (
	"slices"
	"sort"

	"repro/internal/msg"
)

// Allocator places file data blocks on the installation's SAN disks
// (DESIGN.md §17.6). Each disk keeps its free space as a sorted list of
// extents. A request is cut into runs of at most MaxGrantAhead blocks;
// each run comes from one disk, first fit, and the disk rotates per run,
// so a grant is one ascending run a client writes with one request. It is
// server-private state: the shared disks themselves know nothing about
// allocation.
type Allocator struct {
	disks []diskSpace
	next  int // the disk the next run tries first
	// foreign tracks blocks adopted from another shard's allocator via a
	// cross-shard handoff. They are never candidates for reuse here: the
	// home allocator still counts them in-use, so reissuing one would
	// double-allocate the disk block. Freeing a foreign block just
	// retires the reference.
	foreign map[msg.BlockRef]bool
}

// extent is the free run [Start, Start+Len) of one disk. The snapshot
// carries it as it is.
type extent struct{ Start, Len uint64 }

func (e extent) end() uint64 { return e.Start + e.Len }

type diskSpace struct {
	id       msg.NodeID
	capacity uint64
	free     []extent // ascending, none empty, none adjacent to the next
	nFree    uint64
}

// NewAllocator creates an allocator over the given disks, all free.
func NewAllocator(disks map[msg.NodeID]uint64) *Allocator {
	a := &Allocator{foreign: make(map[msg.BlockRef]bool)}
	// Deterministic order regardless of map iteration.
	for id := msg.NodeID(1); len(a.disks) < len(disks); id++ {
		if cap, ok := disks[id]; ok {
			d := diskSpace{id: id, capacity: cap}
			d.give(0, cap)
			a.disks = append(a.disks, d)
		}
		if id > 1<<20 {
			panic("meta: disk IDs out of expected range")
		}
	}
	return a
}

// Alloc returns count blocks as runs of at most MaxGrantAhead, each from
// one disk. It fails, taking nothing, only when the disks together hold
// fewer than count free blocks.
func (a *Allocator) Alloc(count int) (msg.Extents, msg.Errno) {
	if len(a.disks) == 0 || a.freeBlocks() < uint64(count) {
		return nil, msg.ErrNoSpace
	}
	runs := make(msg.Extents, 0, (count+MaxGrantAhead-1)/MaxGrantAhead)
	for left := uint64(count); left > 0; {
		want := min(left, MaxGrantAhead)
		i := a.pick(want)
		var got uint64
		runs, got = a.disks[i].take(runs, want)
		left -= got
		a.next = (i + 1) % len(a.disks)
	}
	return runs, msg.OK
}

// pick chooses the disk for a run of want blocks: in rotation order, the
// first that holds the run in one extent, else the first of those that
// hold the most of it.
func (a *Allocator) pick(want uint64) int {
	best, most := 0, uint64(0)
	for k := range a.disks {
		i := (a.next + k) % len(a.disks)
		d := &a.disks[i]
		if d.fit(want) >= 0 {
			return i
		}
		if n := min(d.nFree, want); n > most {
			best, most = i, n
		}
	}
	return best
}

// fit returns the lowest extent of at least want blocks, or -1.
func (d *diskSpace) fit(want uint64) int {
	for i, e := range d.free {
		if e.Len >= want {
			return i
		}
	}
	return -1
}

// take appends up to want blocks of this disk to runs, and says how many
// it took: the head of the lowest extent that holds them all, else the
// lowest extents in order.
func (d *diskSpace) take(runs msg.Extents, want uint64) (msg.Extents, uint64) {
	if i := d.fit(want); i >= 0 {
		return d.cut(runs, i, want), want
	}
	got := uint64(0)
	for got < want && len(d.free) > 0 {
		n := min(want-got, d.free[0].Len)
		runs = d.cut(runs, 0, n)
		got += n
	}
	return runs, got
}

// cut appends the first n blocks of extent i to runs and removes them.
func (d *diskSpace) cut(runs msg.Extents, i int, n uint64) msg.Extents {
	e := &d.free[i]
	runs = runs.Append(msg.Extent{Disk: d.id, Start: e.Start, Len: uint32(n)})
	e.Start, e.Len = e.Start+n, e.Len-n
	d.nFree -= n
	if e.Len == 0 {
		d.free = slices.Delete(d.free, i, i+1)
	}
	return runs
}

// give returns [start, start+n) to the free extents, merged with its
// neighbours. It reports false, changing nothing, if any of it is free
// already or lies past the disk's end.
func (d *diskSpace) give(start, n uint64) bool {
	end := start + n
	switch {
	case n == 0:
		return true
	case end > d.capacity || end < start:
		return false
	}
	i := sort.Search(len(d.free), func(k int) bool { return d.free[k].Start > start })
	if i > 0 && d.free[i-1].end() > start || i < len(d.free) && d.free[i].Start < end {
		return false
	}
	d.nFree += n
	joinPrev := i > 0 && d.free[i-1].end() == start
	joinNext := i < len(d.free) && d.free[i].Start == end
	switch {
	case joinPrev && joinNext:
		d.free[i-1].Len += n + d.free[i].Len
		d.free = slices.Delete(d.free, i, i+1)
	case joinPrev:
		d.free[i-1].Len += n
	case joinNext:
		d.free[i] = extent{start, n + d.free[i].Len}
	default:
		d.free = slices.Insert(d.free, i, extent{start, n})
	}
	return true
}

func (a *Allocator) disk(id msg.NodeID) *diskSpace {
	for i := range a.disks {
		if a.disks[i].id == id {
			return &a.disks[i]
		}
	}
	return nil
}

// Free returns blocks to the allocator, each run in one step. Double
// frees panic: they are always a metadata-integrity bug. Foreign
// (adopted) blocks are retired without becoming free — only their home
// allocator may reuse them.
func (a *Allocator) Free(runs msg.Extents) {
	for _, e := range runs {
		if d := a.disk(e.Disk); d == nil || !d.give(e.Start, uint64(e.Len)) {
			for b := e.Start; b < e.End(); b++ {
				a.freeOne(msg.BlockRef{Disk: e.Disk, Num: b})
			}
		}
	}
}

// freeOne frees one block of a run Free could not return whole.
func (a *Allocator) freeOne(ref msg.BlockRef) {
	if d := a.disk(ref.Disk); d != nil && d.give(ref.Num, 1) {
		return
	}
	if a.foreign[ref] {
		delete(a.foreign, ref)
		return
	}
	panic("meta: double free of block")
}

// Adopt registers blocks that were allocated by another shard's
// allocator and arrived here through a cross-shard handoff. Adopted
// blocks keep their original disk addresses (file data never moves);
// they are tracked only so Free tolerates them.
func (a *Allocator) Adopt(runs msg.Extents) {
	for _, e := range runs {
		for b := e.Start; b < e.End(); b++ {
			a.foreign[msg.BlockRef{Disk: e.Disk, Num: b}] = true
		}
	}
}

// InUse returns the number of allocated blocks: capacity minus free.
func (a *Allocator) InUse() int { return int(a.Capacity() - a.freeBlocks()) }

func (a *Allocator) freeBlocks() uint64 {
	var n uint64
	for _, d := range a.disks {
		n += d.nFree
	}
	return n
}

// Capacity returns total blocks across all disks.
func (a *Allocator) Capacity() uint64 {
	var total uint64
	for _, d := range a.disks {
		total += d.capacity
	}
	return total
}
