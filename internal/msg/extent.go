package msg

import "math"

// Extent is a run of Len consecutive blocks of one SAN disk, the first
// of them block Start. A file's block map is held and sent as a list of
// them (DESIGN.md §17.1): the allocator hands out runs of up to 64
// blocks, so a map is a few runs where it was one BlockRef per block.
type Extent struct {
	Disk  NodeID
	Start uint64
	Len   uint32
}

// End is the block after the run.
func (e Extent) End() uint64 { return e.Start + uint64(e.Len) }

// Extents is a file's block map: runs in file order, block i of the file
// being the i-th block counted across them. A map built with Append is
// canonical — no run is empty and none continues the one before it on
// its disk — so two holders of the same blocks hold equal maps.
//
// Readers that want one block go through Len and At, which keep the
// shape of the per-block code they replaced.
type Extents []Extent

// Len returns the number of blocks the map covers.
func (m Extents) Len() int {
	n := 0
	for _, e := range m {
		n += int(e.Len)
	}
	return n
}

// At returns where block idx of the file lies. idx must be below Len.
func (m Extents) At(idx uint64) BlockRef {
	for _, e := range m {
		if idx < uint64(e.Len) {
			return BlockRef{Disk: e.Disk, Num: e.Start + idx}
		}
		idx -= uint64(e.Len)
	}
	panic("msg: block index past the end of the map")
}

// Append appends runs to m, each merged into the run before it when it
// continues that run on the same disk, and returns the extended map. An
// empty run adds nothing. It may write m's last run in place, so m must
// be its holder's own.
func (m Extents) Append(runs ...Extent) Extents {
	for _, e := range runs {
		if e.Len == 0 {
			continue
		}
		if n := len(m); n > 0 {
			if last := &m[n-1]; last.Disk == e.Disk && last.End() == e.Start &&
				uint64(last.Len)+uint64(e.Len) <= math.MaxUint32 {
				last.Len += e.Len
				continue
			}
		}
		m = append(m, e)
	}
	return m
}

// Head cuts m to its first n blocks, in place, and returns the result.
func (m Extents) Head(n int) Extents {
	for i, e := range m {
		if n <= int(e.Len) {
			if n == 0 {
				return m[:i]
			}
			m[i].Len = uint32(n)
			return m[:i+1]
		}
		n -= int(e.Len)
	}
	return m
}

// Tail returns a new map of m's blocks from block first on.
func (m Extents) Tail(first int) Extents {
	for i, e := range m {
		if first < int(e.Len) {
			out := append(make(Extents, 0, len(m)-i), m[i:]...)
			out[0] = Extent{Disk: e.Disk, Start: e.Start + uint64(first), Len: e.Len - uint32(first)}
			return out
		}
		first -= int(e.Len)
	}
	return nil
}

// AppendRefs appends m's blocks to dst, one BlockRef each.
func (m Extents) AppendRefs(dst []BlockRef) []BlockRef {
	for _, e := range m {
		for b := e.Start; b < e.End(); b++ {
			dst = append(dst, BlockRef{Disk: e.Disk, Num: b})
		}
	}
	return dst
}
