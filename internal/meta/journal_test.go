package meta

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/msg"
)

var testDisks = map[msg.NodeID]uint64{100: 6, 101: 6}

func openJournaled(t *testing.T, path string) *Store {
	t.Helper()
	s, err := OpenJournaled(path, testDisks, new(blockstore.Syncer))
	if err != nil {
		t.Fatalf("OpenJournaled: %v", err)
	}
	t.Cleanup(func() { s.CloseJournal() })
	return s
}

func commit(t *testing.T, s *Store) {
	t.Helper()
	if err := s.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

// mutator draws one random mutator call. It looks at the store only to
// aim — most inode numbers and handoff IDs it picks exist, some do not —
// and to keep to what the server does with an object that is being
// handed off: it is exported by its real name, once, and is neither
// unlinked nor moved until that settles. A directory above it may be.
// The disks hold 12 blocks, so allocation runs dry and comes back; names
// come from a small alphabet, so creates collide, unlinks hit, and
// renames find both ends.
type mutator struct {
	rng     *rand.Rand
	foreign uint64 // imported blocks must be unique: two owners of one would double-free
	// fellBack counts grants that could not run ahead and were served
	// with the exact count.
	fellBack int
}

func (m *mutator) path() string {
	p := ""
	for depth := 1 + m.rng.Intn(3); depth > 0; depth-- {
		p += "/" + string(rune('a'+m.rng.Intn(3)))
	}
	return p
}

func (m *mutator) ino(s *Store) msg.ObjectID {
	return msg.ObjectID(1 + m.rng.Intn(int(s.nextIno)+1))
}

func (m *mutator) hid(s *Store) uint64 { return uint64(m.rng.Intn(int(s.exportSeq) + 2)) }

// pinned reports whether path names an object in handoff.
func pinned(s *Store, path string) bool {
	in, errno := s.Lookup(path)
	return errno == msg.OK && s.Migrating(in.Ino)
}

// step applies one call to every store in ss, which must be in the same
// state, and returns the name of the mutator called.
func (m *mutator) step(ss ...*Store) string {
	s := ss[0]
	switch m.rng.Intn(17) {
	case 0, 1, 2:
		path, isDir := m.path(), m.rng.Intn(3) == 0
		for _, s := range ss {
			s.Create(path, isDir)
		}
		return "Create"
	case 3:
		path := m.path()
		if pinned(s, path) {
			return m.step(ss...)
		}
		for _, s := range ss {
			s.Unlink(path)
		}
		return "Unlink"
	case 4:
		ino, size := m.ino(s), uint64(m.rng.Intn(3))*4096
		for _, s := range ss {
			s.SetSize(ino, size)
		}
		return "SetSize"
	case 5:
		ino := m.ino(s)
		for _, s := range ss {
			s.Touch(ino)
		}
		return "Touch"
	case 6, 7:
		ino, count := m.ino(s), uint32(m.rng.Intn(9))
		for _, s := range ss {
			s.AllocBlocks(ino, count)
		}
		return "AllocBlocks"
	case 8:
		ino, n, name := m.ino(s), m.rng.Intn(4), "Truncate"
		if in, errno := s.Get(ino); errno == msg.OK && m.rng.Intn(2) == 0 {
			// A writer's trim: back to the blocks the size covers.
			n, name = int((in.Size+4095)/4096), "Trim"
		}
		for _, s := range ss {
			s.Truncate(ino, n)
		}
		return name
	case 9:
		from, to := m.path(), m.path()
		if pinned(s, from) {
			return m.step(ss...)
		}
		for _, s := range ss {
			s.Rename(from, to)
		}
		return "Rename"
	case 10:
		for _, s := range ss {
			s.NextEpoch()
		}
		return "NextEpoch"
	case 11:
		on := m.rng.Intn(2) == 0
		for _, s := range ss {
			s.SetAutoParents(on)
		}
		return "SetAutoParents"
	case 12:
		dest, from, to := msg.NodeID(2+m.rng.Intn(2)), m.path(), m.path()
		in, errno := s.Lookup(from)
		if errno != msg.OK || in.IsDir || s.Migrating(in.Ino) {
			return m.step(ss...)
		}
		for _, s := range ss {
			s.BeginExport(in.Ino, dest, from, to)
		}
		return "BeginExport"
	case 13:
		hid := m.hid(s)
		if m.rng.Intn(2) == 0 {
			for _, s := range ss {
				s.CompleteExport(hid)
			}
			return "CompleteExport"
		}
		for _, s := range ss {
			s.AbortExport(hid)
		}
		return "AbortExport"
	case 14:
		path := m.path()
		attr := msg.Attr{IsDir: m.rng.Intn(4) == 0, Size: uint64(m.rng.Intn(1 << 14)), Version: uint64(m.rng.Intn(9))}
		var blocks []msg.BlockRef
		for n := m.rng.Intn(3); n > 0 && !attr.IsDir; n-- {
			m.foreign++
			blocks = append(blocks, msg.BlockRef{Disk: 900, Num: m.foreign})
		}
		for _, s := range ss {
			s.Install(path, attr, append([]msg.BlockRef(nil), blocks...))
		}
		return "Install"
	case 15:
		// A writer's request: on a file that has blocks it is granted a
		// run ahead, and on disks this small the run often does not fit
		// and the grant falls back — two records, the first a failure.
		ino, count := m.ino(s), uint32(m.rng.Intn(9))
		if m.rng.Intn(2) == 0 {
			count = 1 // an append of one block, the case running ahead is for
		}
		ahead := 0
		if in, errno := s.Get(ino); errno == msg.OK {
			ahead = len(in.Blocks)
		}
		for _, s := range ss {
			in, first, errno := s.GrantBlocks(ino, count)
			if s == ss[0] && errno == msg.OK && ahead > int(count) && len(in.Blocks)-first == int(count) {
				m.fellBack++
			}
		}
		return "GrantBlocks"
	default:
		src, hid, errno := msg.NodeID(2+m.rng.Intn(2)), uint64(m.rng.Intn(5)), msg.Errno(m.rng.Intn(3))
		for _, s := range ss {
			s.RecordImport(src, hid, errno)
		}
		return "RecordImport"
	}
}

// TestJournalReplayEqualsLive is the journal's defining property: after
// any sequence of mutator calls, with commits and checkpoints wherever,
// the store recovered from the files is the live store — byte-identical
// snapshots, and still byte-identical after both run the same further
// calls, which is what catches state a snapshot hides (the order of a
// free list, the allocator's cursor).
func TestJournalReplayEqualsLive(t *testing.T) {
	const seeds = 1000
	dir := t.TempDir()
	called := map[string]int{}
	exhausted, fellBack := 0, 0
	for seed := int64(0); seed < seeds; seed++ {
		path := filepath.Join(dir, fmt.Sprintf("meta-%d.json", seed))
		m := &mutator{rng: rand.New(rand.NewSource(seed))}
		live := openJournaled(t, path)
		for n := 20 + m.rng.Intn(80); n > 0; n-- {
			called[m.step(live)]++
			switch m.rng.Intn(12) {
			case 0, 1, 2, 3:
				commit(t, live)
			case 4:
				live.j.limit = 0 // the next Commit with anything to write checkpoints
			}
		}
		if live.alloc.InUse() == int(live.alloc.Capacity()) {
			exhausted++
		}
		fellBack += m.fellBack
		commit(t, live)
		want := live.Snapshot()
		got := openJournaled(t, path)
		if !bytes.Equal(got.Snapshot(), want) {
			t.Fatalf("seed %d: recovered store differs from live store\n live: %s\n  got: %s", seed, want, got.Snapshot())
		}
		for n := 30; n > 0; n-- {
			m.step(live, got)
		}
		if !bytes.Equal(got.Snapshot(), live.Snapshot()) {
			t.Fatalf("seed %d: recovered and live store diverge under the same further calls\nlive: %s\n got: %s",
				seed, live.Snapshot(), got.Snapshot())
		}
		// The parent links are in neither file: the mutators keep them and
		// a snapshot load rebuilds them, and both must agree with a scan.
		checkParents(t, live)
		checkParents(t, got)
		live.CloseJournal()
		got.CloseJournal()
	}
	for _, name := range []string{"Create", "Unlink", "SetSize", "Touch", "AllocBlocks", "GrantBlocks", "Truncate", "Trim", "Rename",
		"NextEpoch", "SetAutoParents", "BeginExport", "CompleteExport", "AbortExport", "Install", "RecordImport"} {
		if called[name] < seeds/10 {
			t.Errorf("mutator %s called %d times over %d seeds: the property is not exercising it", name, called[name], seeds)
		}
	}
	if fellBack < seeds/50 {
		t.Errorf("%d grants over %d seeds fell back to the exact count: the property is not reaching a grant-ahead that does not fit", fellBack, seeds)
	}
	if exhausted < seeds/20 {
		t.Errorf("allocator exhausted at the end of %d of %d seeds: the disks are too large for the property to reach ErrNoSpace", exhausted, seeds)
	}
}

// journalFiles is a store's persisted form, to be put back as often as a
// test wants to recover from it.
type journalFiles struct{ snap, log []byte }

func readFiles(t *testing.T, path string) journalFiles {
	t.Helper()
	snap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(logPath(path))
	if err != nil {
		t.Fatal(err)
	}
	return journalFiles{snap, log}
}

// recoverFrom writes the files into a fresh directory and recovers.
func recoverFrom(t *testing.T, f journalFiles) (*Store, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "meta.json")
	if err := os.WriteFile(path, f.snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath(path), f.log, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenJournaled(path, testDisks, new(blockstore.Syncer))
	if err == nil {
		t.Cleanup(func() { s.CloseJournal() })
	}
	return s, err
}

// TestJournalTornTail cuts the log at every byte of a record and flips
// every bit of it: recovery must come back with exactly the state before
// that record — not an error, and not the intact record behind it.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.json")
	s := openJournaled(t, path)
	s.SetAutoParents(true)
	s.Create("/a/b/f", false)
	s.NextEpoch()
	commit(t, s)
	before := s.Snapshot()
	start := len(readFiles(t, path).log)
	in, _ := s.Lookup("/a/b/f")
	s.AllocBlocks(in.Ino, 3) // the record to tear
	commit(t, s)
	end := len(readFiles(t, path).log)
	s.Create("/a/g", false) // an intact record behind it
	commit(t, s)
	files := readFiles(t, path)
	if start == 0 || end <= start || len(files.log) <= end {
		t.Fatalf("log offsets: %d, %d, %d", start, end, len(files.log))
	}

	check := func(what string, log []byte) {
		t.Helper()
		got, err := recoverFrom(t, journalFiles{files.snap, log})
		if err != nil {
			t.Fatalf("%s: recovery failed: %v", what, err)
		}
		if !bytes.Equal(got.Snapshot(), before) {
			t.Fatalf("%s: recovered\n%s\nwant the state before the torn record\n%s", what, got.Snapshot(), before)
		}
	}
	for cut := start; cut < end; cut++ {
		check(fmt.Sprintf("log cut at byte %d of [%d,%d)", cut, start, end), files.log[:cut])
	}
	for bit := start * 8; bit < end*8; bit++ {
		log := append([]byte(nil), files.log...)
		log[bit/8] ^= 1 << (bit % 8)
		check(fmt.Sprintf("bit %d flipped in record [%d,%d)", bit-start*8, start, end), log)
	}

	whole, err := recoverFrom(t, files)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(whole.Snapshot(), s.Snapshot()) {
		t.Fatal("the untouched log does not recover the live store")
	}
}

// TestJournalCorruptionIsAnError: a record that passes its CRC but does
// not follow its predecessor, or names no mutator, is not a torn tail —
// acknowledged mutations are missing — and recovery must say so.
func TestJournalCorruptionIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.json")
	s := openJournaled(t, path)
	s.Create("/f", false)
	commit(t, s)
	files := readFiles(t, path)

	frame := func(seq uint64, op byte) []byte {
		tmp := &Store{j: &journal{}, seq: seq - 1}
		tmp.logOp(op).end()
		return tmp.j.pending
	}
	for what, rec := range map[string][]byte{
		"a skipped seq":       frame(s.seq+2, opNextEpoch),
		"an unknown mutator":  frame(s.seq+1, 0xEE),
		"truncated arguments": frame(s.seq+1, opCreate),
	} {
		log := append(append([]byte(nil), files.log...), rec...)
		if _, err := recoverFrom(t, journalFiles{files.snap, log}); err == nil {
			t.Errorf("%s behind an intact log recovered without an error", what)
		}
	}
}

// TestCheckpointCrashWindows crashes a checkpoint at its two seams. With
// the new snapshot in place but the old log not yet replaced, the log
// holds records the snapshot already contains, and the snapshot's seq —
// not luck — must keep them from running twice; temp files a crash left
// behind must not matter.
func TestCheckpointCrashWindows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.json")
	s := openJournaled(t, path)
	s.SetAutoParents(true)
	// Every one of these changes the store again if replayed twice.
	s.NextEpoch()
	s.Create("/d/f", false)
	in, _ := s.Lookup("/d/f")
	s.AllocBlocks(in.Ino, 2)
	s.Touch(in.Ino)
	s.BeginExport(in.Ino, 2, "/d/f", "/x/f")
	commit(t, s)
	oldLog := readFiles(t, path).log
	if len(oldLog) == 0 {
		t.Fatal("nothing logged")
	}
	s.j.limit = 0
	s.NextEpoch()
	commit(t, s) // checkpoints
	after := readFiles(t, path)
	if len(after.log) != 0 {
		t.Fatalf("checkpoint left %d bytes of log", len(after.log))
	}
	want := s.Snapshot()

	// The record of the NextEpoch that triggered the checkpoint was
	// written to the old log before the snapshot was taken.
	tmp := &Store{j: &journal{}, seq: s.seq - 1}
	tmp.logOp(opNextEpoch).end()
	oldLog = append(oldLog, tmp.j.pending...)

	got, err := recoverFrom(t, journalFiles{after.snap, oldLog})
	if err != nil {
		t.Fatalf("snapshot renamed, log not reset: %v", err)
	}
	if !bytes.Equal(got.Snapshot(), want) {
		t.Fatalf("snapshot renamed, log not reset: records ran twice\n got: %s\nwant: %s", got.Snapshot(), want)
	}

	dir := t.TempDir()
	path2 := filepath.Join(dir, "meta.json")
	for name, data := range map[string][]byte{
		path2:                   after.snap,
		logPath(path2):          after.log,
		path2 + ".tmp":          []byte(`{"Inodes":[{"Ino":1`), // a snapshot cut short
		logPath(path2) + ".tmp": oldLog,
	} {
		if err := os.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got = openJournaled(t, path2)
	if !bytes.Equal(got.Snapshot(), want) {
		t.Fatalf("temp files left behind changed the recovery\n got: %s\nwant: %s", got.Snapshot(), want)
	}
}

// TestDeposedWriterChangesNothing: a server that lost the authority but
// has not noticed keeps committing. The winner's recovery checkpoint
// replaced the log, so the loser's appends land in an unlinked file, and
// the loser's own checkpoint — which would overwrite the snapshot the
// winner recovers from next time — refuses.
func TestDeposedWriterChangesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.json")
	loser := openJournaled(t, path)
	loser.Create("/acked", false)
	commit(t, loser)

	winner := openJournaled(t, path)
	winner.Create("/winner", false)
	commit(t, winner)

	loser.Create("/late", false)
	commit(t, loser) // a plain append: goes to the unlinked log
	loser.Create("/later", false)
	loser.j.limit = 0
	if err := loser.Commit(); !errors.Is(err, ErrSuperseded) {
		t.Fatalf("deposed writer's checkpoint: %v, want ErrSuperseded", err)
	}

	next := openJournaled(t, path)
	if !bytes.Equal(next.Snapshot(), winner.Snapshot()) {
		t.Fatalf("the deposed writer reached the files\n recovered: %s\n    winner: %s", next.Snapshot(), winner.Snapshot())
	}
	for path, want := range map[string]msg.Errno{"/acked": msg.OK, "/winner": msg.OK, "/late": msg.ErrNoEnt, "/later": msg.ErrNoEnt} {
		if _, errno := next.Lookup(path); errno != want {
			t.Errorf("lookup %s after the handover: %v, want %v", path, errno, want)
		}
	}
}

// TestCommitWithoutJournal pins what the simulator relies on: a store
// nobody journalled commits for free and logs nothing.
func TestCommitWithoutJournal(t *testing.T) {
	s := NewStore(NewAllocator(testDisks))
	s.Create("/f", false)
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if s.seq != 0 {
		t.Fatalf("unjournalled store advanced seq to %d", s.seq)
	}
}

// BenchmarkMetaCommit is what persist-before-reply costs a mutation: one
// Create + Commit and one Unlink + Commit on a journalled store of n
// inodes, the checkpoints those commits trigger included. ROADMAP item
// 3's gate is that the figure does not depend on n (benchjson holds
// 100k to within 2× of 1k): a checkpoint costs O(n), but one is due only
// every max(1 MiB, 4 × snapshot) bytes of log, which is O(n) too.
func BenchmarkMetaCommit(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"1k", 1000}, {"100k", 100000}} {
		b.Run(size.name, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "meta.json")
			s, err := OpenJournaled(path, testDisks, new(blockstore.Syncer))
			if err != nil {
				b.Fatal(err)
			}
			defer s.CloseJournal()
			for d := 0; d < size.n/100; d++ {
				s.Create(fmt.Sprintf("/d%d", d), true)
				for f := 0; f < 99; f++ {
					s.Create(fmt.Sprintf("/d%d/f%d", d, f), false)
				}
			}
			// Start where a long-running server is: right after a
			// checkpoint, so that the limit is the one this namespace
			// gets.
			s.j.limit = 0
			if err := s.Commit(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Create("/d0/probe", false)
				if err := s.Commit(); err != nil {
					b.Fatal(err)
				}
				s.Unlink("/d0/probe")
				if err := s.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
