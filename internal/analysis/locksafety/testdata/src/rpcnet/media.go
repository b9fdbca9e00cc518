package rpcnet

import (
	"sync"

	"repro/internal/analysis/locksafety/testdata/src/blockstore"
)

// store witnesses the media reads: each one waits on the device, so none
// may run under a leaf lock. Fences only hands over the in-memory table.
type store struct {
	mu    sync.Mutex
	media blockstore.Media
	file  *blockstore.File
}

func (s *store) readUnderLock(blocks []uint64, dst []byte, vers []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.media.ReadV(blocks, dst, vers)      // want `call to \(blockstore.Media\).ReadV while s.mu is held`
	s.file.Read(0)                        // want `call to \(blockstore.File\).Read while s.mu is held`
	s.file.ReadV(blocks, dst, vers)       // want `call to \(blockstore.File\).ReadV while s.mu is held`
	s.file.ReadInto(0, dst)               // want `call to \(blockstore.File\).ReadInto while s.mu is held`
	s.file.RaiseFence(blockstore.Fence{}) // want `call to \(blockstore.File\).RaiseFence while s.mu is held`
	s.file.Fences()
	s.media.Fences()
}
