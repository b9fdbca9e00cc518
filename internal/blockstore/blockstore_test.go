package blockstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/stats"
)

func openTemp(t *testing.T, dir string, blocks uint64) *File {
	t.Helper()
	f, err := Open(dir, Options{Blocks: blocks})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestMemMatchesFileSemantics(t *testing.T) {
	media := []struct {
		name string
		m    Media
	}{
		{"mem", NewMem()},
		{"file", openTemp(t, t.TempDir(), 64)},
	}
	for _, tc := range media {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			if _, _, ok, err := m.Read(3); ok || err != nil {
				t.Fatalf("unwritten block: ok=%v err=%v", ok, err)
			}
			if err := m.Write(3, []byte("short"), 7); err != nil {
				t.Fatal(err)
			}
			data, ver, ok, err := m.Read(3)
			if err != nil || !ok || ver != 7 {
				t.Fatalf("read: ok=%v ver=%d err=%v", ok, ver, err)
			}
			if len(data) != BlockSize || !bytes.HasPrefix(data, []byte("short")) {
				t.Fatalf("data not zero-padded copy: len=%d", len(data))
			}
			if !bytes.Equal(data[5:], make([]byte, BlockSize-5)) {
				t.Fatal("tail not zeroed")
			}
			fences := m.Fences()
			if fl := fences.Floor(1, 9); fl != 0 {
				t.Fatalf("floor %d before any fence", fl)
			}
			for _, fc := range []Fence{{1, 9, 5}, {1, 9, 3}, {2, 8, 7}} {
				if err := m.RaiseFence(fc); err != nil {
					t.Fatal(err)
				}
			}
			// The lower fence changed nothing, and each authority's pair
			// is its own.
			if fl := fences.Floor(1, 9); fl != 5 {
				t.Fatalf("authority 1's floor for 9 is %d, want 5", fl)
			}
			if fl := fences.Floor(2, 9); fl != 0 {
				t.Fatalf("authority 2's floor for 9 is %d: authority 1's fence reached it", fl)
			}
			if top := fences.Top(1); top != 5 {
				t.Fatalf("authority 1's top is %d, want 5", top)
			}
		})
	}
}

func TestFilePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	f := openTemp(t, dir, 32)
	payload := bytes.Repeat([]byte{0xAB}, BlockSize)
	if err := f.Write(5, payload, 42); err != nil {
		t.Fatal(err)
	}
	for _, fc := range []Fence{{1, 77, 4}, {1, 78, 2}, {1, 78, 6}, {2, 78, 1}} {
		if err := f.RaiseFence(fc); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()

	g := openTemp(t, dir, 32)
	data, ver, ok, err := g.Read(5)
	if err != nil || !ok || ver != 42 || !bytes.Equal(data, payload) {
		t.Fatalf("reopen read: ok=%v ver=%d err=%v", ok, ver, err)
	}
	want := []Fence{{1, 77, 4}, {1, 78, 6}, {2, 78, 1}}
	if got := g.Fences().All(); !slices.Equal(got, want) {
		t.Fatalf("fence table after reopen: %v, want %v", got, want)
	}
	rep := g.Recovery()
	if !rep.Recovered || rep.Verified != 1 || len(rep.Torn) != 0 {
		t.Fatalf("recovery report: %v", rep)
	}
	if !slices.Equal(rep.Fenced, want) {
		t.Fatalf("recovered fences: %v", rep.Fenced)
	}
	// The replay processed the compacted journal from the prior open (0
	// records, fresh store) plus this run's 4 appends — after compaction
	// a third open sees one record per pair.
	g.Close()
	h := openTemp(t, dir, 32)
	if rec := h.Recovery().JournalRecords; rec != 3 {
		t.Fatalf("journal not compacted: %d records", rec)
	}
}

func TestFileDetectsTornBlock(t *testing.T) {
	dir := t.TempDir()
	f := openTemp(t, dir, 32)
	good := bytes.Repeat([]byte{0x11}, BlockSize)
	for _, b := range []uint64{2, 3} {
		if err := f.Write(b, good, 9); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()

	// Tear block 2 the way a crash mid-pwrite would: partial foreign
	// bytes inside the block, trailer left describing the old contents.
	raw, err := os.OpenFile(DataPath(dir), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.WriteAt(bytes.Repeat([]byte{0xEE}, 700), DataOffset(2)+100); err != nil {
		t.Fatal(err)
	}
	raw.Close()

	g := openTemp(t, dir, 32)
	rep := g.Recovery()
	if len(rep.Torn) != 1 || rep.Torn[0] != 2 || rep.Verified != 1 {
		t.Fatalf("recovery report: %v", rep)
	}
	if _, _, _, err := g.Read(2); !errors.Is(err, ErrTorn) {
		t.Fatalf("torn read err = %v, want ErrTorn", err)
	}
	// The intact neighbour still serves.
	if data, _, ok, err := g.Read(3); err != nil || !ok || !bytes.Equal(data, good) {
		t.Fatalf("intact block: ok=%v err=%v", ok, err)
	}
	// Rewriting the torn block repairs it.
	if err := g.Write(2, good, 10); err != nil {
		t.Fatal(err)
	}
	if _, ver, ok, err := g.Read(2); err != nil || !ok || ver != 10 {
		t.Fatalf("post-repair read: ok=%v ver=%d err=%v", ok, ver, err)
	}
}

func TestFileTornJournalTailIgnored(t *testing.T) {
	dir := t.TempDir()
	f := openTemp(t, dir, 8)
	if err := f.RaiseFence(Fence{1, 5, 2}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// Append a torn (garbage-CRC) record.
	raw, err := os.OpenFile(dir+"/"+fenceFileName, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}); err != nil {
		t.Fatal(err)
	}
	raw.Close()

	g := openTemp(t, dir, 8)
	if g.Fences().Floor(1, 5) != 2 {
		t.Fatal("acknowledged fence lost to torn tail")
	}
	if rec := g.Recovery().JournalRecords; rec != 1 {
		t.Fatalf("replayed %d records, want 1 (torn tail skipped)", rec)
	}
}

// TestFileRefusesTheOldFenceJournal: a journal in the per-target format
// of older builds names no authority for its fences, so Open refuses it
// and says what to do; one that holds no record holds no fence, and is
// taken as it is.
func TestFileRefusesTheOldFenceJournal(t *testing.T) {
	dir := t.TempDir()
	openTemp(t, dir, 8).Close()
	journal := filepath.Join(dir, fenceFileName)
	if err := os.WriteFile(journal, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	openTemp(t, dir, 8).Close()
	// target 5 | on 1 | CRC over both.
	old := []byte{5, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(old[8:], crc32.Checksum(old[:8], castagnoli))
	if err := os.WriteFile(journal, old, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, Options{})
	if err == nil || !strings.Contains(err.Error(), "older build") {
		t.Fatalf("Open over an old-format fence journal: %v", err)
	}
}

func TestFileCapacityMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	openTemp(t, dir, 16).Close()
	if _, err := Open(dir, Options{Blocks: 32}); err == nil {
		t.Fatal("capacity mismatch not rejected")
	}
	// Blocks=0 accepts whatever the superblock records.
	g, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.Capacity() != 16 {
		t.Fatalf("capacity = %d", g.Capacity())
	}
}

func TestFileOutOfRange(t *testing.T) {
	f := openTemp(t, t.TempDir(), 4)
	if err := f.Write(4, nil, 1); err == nil {
		t.Fatal("write beyond capacity accepted")
	}
	if _, _, _, err := f.Read(4); err == nil {
		t.Fatal("read beyond capacity accepted")
	}
	if err := f.Write(0, make([]byte, BlockSize+1), 1); err == nil {
		t.Fatal("oversized write accepted")
	}
}

func TestFileInstruments(t *testing.T) {
	reg := stats.NewRegistry()
	dir := t.TempDir()
	f, err := Open(dir, Options{Blocks: 8, Registry: reg, StatsPrefix: "disk.n9.media."})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Write(0, []byte("x"), 1); err != nil {
		t.Fatal(err)
	}
	if err := f.RaiseFence(Fence{1, 3, 2}); err != nil {
		t.Fatal(err)
	}
	// A fence that raises nothing writes nothing.
	if err := f.RaiseFence(Fence{1, 3, 1}); err != nil {
		t.Fatal(err)
	}
	// superblock(1) + journal header(1) + write(2) + fence(1) fsyncs.
	if got := reg.CounterValue("disk.n9.media.fsyncs"); got != 5 {
		t.Fatalf("fsyncs = %d, want 5", got)
	}
	if got := reg.CounterValue("disk.n9.media.journal_records"); got != 1 {
		t.Fatalf("journal_records = %d, want 1", got)
	}
	if reg.Histogram("disk.n9.media.fsync_wait").Count() != 5 {
		t.Fatal("fsync_wait histogram empty")
	}
}

// TestCreateSyncsDirectories: a store Open creates survives a power loss
// as soon as Open returns. Each directory Open makes is fsynced into its
// parent, and the store's directory once its three files are in it;
// those fsyncs count as dir_fsyncs, apart from the file fsyncs of the
// superblock and of the fence journal's header.
func TestCreateSyncsDirectories(t *testing.T) {
	reg := stats.NewRegistry()
	dir := filepath.Join(t.TempDir(), "san", "disk-9")
	f, err := Open(dir, Options{Blocks: 8, Registry: reg, StatsPrefix: "m."})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// san into the temp dir, disk-9 into san, the files into disk-9.
	if got := reg.CounterValue("m.dir_fsyncs"); got != 3 {
		t.Errorf("dir_fsyncs = %d after creating a store two directories deep, want 3", got)
	}
	if got := reg.CounterValue("m.fsyncs"); got != 2 {
		t.Errorf("fsyncs = %d, want 2 (the superblock, the journal's header)", got)
	}
}

// TestReopenSyncsCompactedJournal: reopening a store that holds a fence
// installs the compacted fence journal, and fsyncs the directory after
// its rename, before Open returns. Without that fsync a power loss could
// bring the old journal back and forget every fence acknowledged since.
func TestReopenSyncsCompactedJournal(t *testing.T) {
	reg := stats.NewRegistry()
	dir := t.TempDir()
	opts := Options{Blocks: 8, Registry: reg, StatsPrefix: "m."}
	f, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.RaiseFence(Fence{1, 7, 1}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	before := reg.CounterValue("m.dir_fsyncs")
	g, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if got := reg.CounterValue("m.dir_fsyncs") - before; got != 1 {
		t.Errorf("reopen fsynced the directory %d times, want 1 (after the journal's rename)", got)
	}
	if g.Fences().Floor(1, 7) != 1 {
		t.Error("fence lost across the reopen")
	}
	if _, err := os.Stat(filepath.Join(dir, fenceFileName+".tmp")); !os.IsNotExist(err) {
		t.Errorf("compaction left its temp file behind: %v", err)
	}
	if err := g.RaiseFence(Fence{1, 8, 1}); err != nil {
		t.Fatalf("appending to the compacted journal: %v", err)
	}
}

func BenchmarkFileWrite(b *testing.B) {
	dir := b.TempDir()
	f, err := Open(dir, Options{Blocks: 1 << 12, NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	buf := bytes.Repeat([]byte{0x5A}, BlockSize)
	b.SetBytes(BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Write(uint64(i)&((1<<12)-1), buf, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFileWriteSync(b *testing.B) {
	dir := b.TempDir()
	f, err := Open(dir, Options{Blocks: 1 << 12})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	buf := bytes.Repeat([]byte{0x5A}, BlockSize)
	b.SetBytes(BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Write(uint64(i)&((1<<12)-1), buf, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
