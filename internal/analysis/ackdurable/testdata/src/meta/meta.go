// Package meta mirrors the store surface rule A4 keys on (a Commit
// method on a type of a package named meta) and exercises A3 outside
// blockstore: no function here may fsync, whatever its name, because
// the one fsync site is blockstore's (*Syncer).fsync.
package meta

import "os"

type Store struct {
	log *os.File
}

// Commit hands the journalled mutations to the kernel.
func (s *Store) Commit() error { return nil }

// fsync has the one site's name but lives in the wrong package.
func fsync(f *os.File) error {
	return f.Sync() // want `direct \(\*os.File\).Sync bypasses blockstore's \(\*Syncer\).fsync`
}

func (s *Store) checkpoint() error {
	return fsync(s.log)
}

func (s *Store) strayCheckpoint() error {
	return s.log.Sync() // want `direct \(\*os.File\).Sync bypasses blockstore's \(\*Syncer\).fsync`
}
