// Package meta mirrors the store surface rule A4 keys on (a Commit
// method on a type of a package named meta) and, being in scope itself,
// exercises A3's second package: fsync only inside the fsync helper.
package meta

import "os"

type Store struct {
	log *os.File
}

// Commit hands the journalled mutations to the kernel.
func (s *Store) Commit() error { return nil }

// fsync is the sanctioned helper; A3 exempts the function by name.
func fsync(f *os.File) error {
	return f.Sync()
}

func (s *Store) checkpoint() error {
	return fsync(s.log)
}

func (s *Store) strayCheckpoint() error {
	return s.log.Sync() // want `direct \(\*os.File\).Sync bypasses the sanctioned fsync helper`
}
