// Package blockstore mirrors the media surface the ackdurable pass keys
// on. Being in scope itself, it also exercises rules A1 (discarded
// errors) and A3 (fsync outside the one site, (*Syncer).fsync).
package blockstore

import (
	"os"

	"repro/internal/analysis/ackdurable/testdata/src/msg"
)

type BlockWrite struct {
	Block uint64
	Data  []byte
	Ver   uint64
}

type Media interface {
	Write(block uint64, data []byte, ver uint64) error
	WriteV(batch []BlockWrite) []error
	SetFence(target msg.NodeID, on bool) error
	Close() error
}

// Syncer is the one way to stable storage.
type Syncer struct {
	noSync bool
}

// fsync is the tree's one fsync site; A3 exempts exactly this method.
func (s *Syncer) fsync(f *os.File) error {
	if s.noSync {
		return nil
	}
	return f.Sync()
}

type File struct {
	f      *os.File
	syncer *Syncer
}

// sync reaches the disk through the Syncer: allowed.
func (f *File) sync(file *os.File) error {
	return f.syncer.fsync(file)
}

// fsync has the sanctioned name on the wrong receiver.
func (f *File) fsync(file *os.File) error {
	return file.Sync() // want `direct \(\*os.File\).Sync bypasses blockstore's \(\*Syncer\).fsync`
}

func (f *File) commit() error {
	return f.sync(f.f)
}

func rogueSync(file *os.File) error {
	return file.Sync() // want `direct \(\*os.File\).Sync bypasses blockstore's \(\*Syncer\).fsync`
}

func closeQuietly(f *os.File) {
	f.Close() // want `error result of f.Close is silently discarded`
}

func deferCloseQuietly(f *os.File) error {
	defer f.Close() // want `error result of f.Close is silently discarded`
	return nil
}

func closeExplicitly(f *os.File) {
	// Deliberate, reasoned discard: the explicit form is the allowed one.
	_ = f.Close()
}

func closeChecked(f *os.File) error {
	if err := f.Close(); err != nil {
		return err
	}
	return nil
}
