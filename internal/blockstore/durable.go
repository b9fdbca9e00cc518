package blockstore

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/stats"
)

// Syncer is the one way to stable storage for the block store and the
// metadata journal alike: every fsync of a file or a directory, and every
// atomic file replacement, goes through it. It holds the NoSync gate and
// counts under its prefix fsyncs and fsync_wait (files) and dir_fsyncs
// (directories, apart, so that fsyncs stays what the write path pays).
// The zero Syncer fsyncs and counts nothing.
type Syncer struct {
	noSync    bool
	fsyncs    *stats.Counter
	dirFsyncs *stats.Counter
	wait      *stats.Histogram
}

// NewSyncer returns a Syncer counting into reg, when non-nil. With noSync
// it skips every fsync: durability then relies on the OS page cache,
// which survives a killed process but not a power loss.
func NewSyncer(reg *stats.Registry, prefix string, noSync bool) *Syncer {
	s := &Syncer{noSync: noSync}
	if reg != nil {
		s.fsyncs = reg.Counter(prefix + "fsyncs")
		s.dirFsyncs = reg.Counter(prefix + "dir_fsyncs")
		s.wait = reg.Histogram(prefix + "fsync_wait")
	}
	return s
}

// fsync is the tree's only (*os.File).Sync call (the ackdurable pass
// holds every package to that). The wall-clock reads are measurement of
// the real device, not protocol time.
//
//lint:allow clockhygiene(fsync latency is a measurement of the physical device, not protocol time)
func (s *Syncer) fsync(f *os.File, dir bool) error {
	if s.noSync {
		return nil
	}
	start := time.Now()
	err := f.Sync()
	switch {
	case s.fsyncs == nil:
	case dir:
		s.dirFsyncs.Inc()
	default:
		s.fsyncs.Inc()
		s.wait.Observe(time.Since(start))
	}
	if err != nil {
		return fmt.Errorf("fsync %s: %w", f.Name(), err)
	}
	return nil
}

// syncDir fsyncs directory dir: the names created in it or renamed into
// it survive a power loss from here on.
func (s *Syncer) syncDir(dir string) error {
	if s.noSync {
		return nil // nothing to fsync, so no reason to open dir
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = s.fsync(d, true)
	// Nothing was written through d; its fsync error is the one to report.
	_ = d.Close()
	return err
}

// mkdirAll is os.MkdirAll that fsyncs the parent of every directory it
// creates, so that a power loss cannot take the new name back.
func (s *Syncer) mkdirAll(dir string) error {
	if _, err := os.Stat(dir); err == nil {
		return nil
	}
	if err := s.mkdirAll(filepath.Dir(dir)); err != nil {
		return err
	}
	if err := os.Mkdir(dir, 0o755); err != nil && !os.IsExist(err) {
		return err
	}
	return s.syncDir(filepath.Dir(dir))
}

// Install puts data at path so that a crash at any instant, power loss
// included, leaves the old file or the new one, whole: write a temp file,
// fsync it, rename it into place, fsync the directory. It returns the new
// file open for reading and writing, its offset at the end.
func (s *Syncer) Install(path string, data []byte) (*os.File, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("installing %s: %w", path, err)
	}
	fail := func(err error) (*os.File, error) {
		_ = f.Close() // the temp file is abandoned; err is what matters
		return nil, fmt.Errorf("installing %s: %w", path, err)
	}
	if _, err := f.Write(data); err != nil {
		return fail(err)
	}
	if err := s.fsync(f, false); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fail(err)
	}
	if err := s.syncDir(filepath.Dir(path)); err != nil {
		return fail(err)
	}
	return f, nil
}
