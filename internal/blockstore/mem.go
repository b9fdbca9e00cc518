package blockstore

// Mem is the in-memory media the simulator (and any test that does not
// care about durability) runs on. Its semantics are exactly the maps the
// disk used to hold inline: unwritten blocks read as absent, writes are
// zero-padded copies, and nothing survives the process. Determinism of
// the simulation is untouched — Mem performs no I/O and allocates the
// same way the old code did.
type Mem struct {
	data   map[uint64][]byte
	vers   map[uint64]uint64
	fences Fences
}

// NewMem returns an empty in-memory media.
func NewMem() *Mem {
	return &Mem{
		data: make(map[uint64][]byte),
		vers: make(map[uint64]uint64),
	}
}

// Read returns the stored block, or ok=false if never written. The
// returned slice is the store's own buffer and is read-only by the Media
// contract; Write always installs a fresh buffer, so a previously
// returned slice is never mutated in place.
func (m *Mem) Read(block uint64) (data []byte, ver uint64, ok bool, err error) {
	b, ok := m.data[block]
	if !ok {
		return nil, 0, false, nil
	}
	return b, m.vers[block], true, nil
}

// ReadV copies each block into its slot of dst. Memory has no system
// call to amortize, so the batch is exactly a loop over Read.
func (m *Mem) ReadV(blocks []uint64, dst []byte, vers []uint64) []error {
	for i, block := range blocks {
		slot := dst[i*BlockSize : (i+1)*BlockSize]
		if data, ok := m.data[block]; ok {
			copy(slot, data)
		} else {
			clear(slot)
		}
		vers[i] = m.vers[block]
	}
	return nil
}

// Write stores a zero-padded copy of the block.
func (m *Mem) Write(block uint64, data []byte, ver uint64) error {
	buf := make([]byte, BlockSize)
	copy(buf, data)
	m.data[block] = buf
	m.vers[block] = ver
	return nil
}

// WriteV stores each block of the batch in order. Memory has no
// stabilization step to amortize, so the batch is exactly a loop over
// Write — which is what keeps simulated output byte-identical whether a
// flush arrives as one vectored message or as per-page writes.
func (m *Mem) WriteV(batch []BlockWrite) []error {
	errs := make([]error, len(batch))
	for i, w := range batch {
		errs[i] = m.Write(w.Block, w.Data, w.Ver)
	}
	return errs
}

// RaiseFence raises f's pair in the fence table.
func (m *Mem) RaiseFence(f Fence) error {
	m.fences.raise(f)
	return nil
}

// Fences returns the fence table.
func (m *Mem) Fences() *Fences { return &m.fences }

// Recovery returns a zero report: memory has nothing to recover.
func (m *Mem) Recovery() RecoveryReport { return RecoveryReport{} }

// Close is a no-op.
func (m *Mem) Close() error { return nil }

var _ Media = (*Mem)(nil)
