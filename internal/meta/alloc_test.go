package meta

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/msg"
)

var allocSeeds = flag.Int("allocseeds", 300, "histories TestAllocatorAgainstBitmap draws")

// run is an ascending stretch of adjacent blocks of one disk.
type run struct {
	Disk       msg.NodeID
	Start, Len uint64
}

func runsOf(refs []msg.BlockRef) []run {
	var out []run
	for _, ref := range refs {
		if k := len(out) - 1; k >= 0 && out[k].Disk == ref.Disk && out[k].Start+out[k].Len == ref.Num {
			out[k].Len++
			continue
		}
		out = append(out, run{ref.Disk, ref.Num, 1})
	}
	return out
}

// bitmap is the allocator's specification: which blocks of each disk are
// handed out.
type bitmap map[msg.NodeID][]bool

func (m bitmap) free() (n int) {
	for _, used := range m {
		for _, u := range used {
			if !u {
				n++
			}
		}
	}
	return n
}

// longestFree is the longest stretch of free blocks on any one disk.
func (m bitmap) longestFree() (best int) {
	for _, used := range m {
		cur := 0
		for _, u := range used {
			if u {
				cur = 0
				continue
			}
			cur++
			best = max(best, cur)
		}
	}
	return best
}

// mark records refs as handed out (used) or returned, failing on a block
// that was not in the other state.
func (m bitmap) mark(t *testing.T, what string, refs []msg.BlockRef, used bool) {
	t.Helper()
	for _, ref := range refs {
		blocks := m[ref.Disk]
		if ref.Num >= uint64(len(blocks)) || blocks[ref.Num] == used {
			t.Fatalf("%s: block %v was not %s", what, ref, map[bool]string{true: "free", false: "in use"}[used])
		}
		blocks[ref.Num] = used
	}
}

// check holds the allocator to the bitmap: each disk's free extents are
// exactly its free blocks, ascending, merged, and free + in use is the
// capacity.
func (m bitmap) check(t *testing.T, what string, a *Allocator) {
	t.Helper()
	for _, d := range a.disks {
		var want []extent
		for b, u := range m[d.id] {
			if u {
				continue
			}
			if k := len(want) - 1; k >= 0 && want[k].end() == uint64(b) {
				want[k].Len++
			} else {
				want = append(want, extent{uint64(b), 1})
			}
		}
		var n uint64
		for _, e := range d.free {
			n += e.Len
		}
		if !slices.Equal(d.free, want) || n != d.nFree {
			t.Fatalf("%s: disk %v free %v (%d counted), the bitmap says %v", what, d.id, d.free, d.nFree, want)
		}
	}
	if free := m.free(); a.InUse()+free != int(a.Capacity()) {
		t.Fatalf("%s: %d in use + %d free != capacity %d", what, a.InUse(), free, a.Capacity())
	}
}

// holdsModel holds each file's map to its per-block model: the same
// blocks in the same order, in the per-block form Lookup fills, through
// Len, and through At at each run's ends; and the runs canonical — none
// empty, none continuing the one before it.
func holdsModel(t *testing.T, what string, s *Store, files map[string][]msg.BlockRef) {
	t.Helper()
	for path, want := range files {
		in, _ := s.Lookup(path)
		m := in.Map
		if !slices.Equal(in.Blocks, want) || m.Len() != len(want) {
			t.Fatalf("%s: %s maps %v (Len %d), the model %v", what, path, in.Blocks, m.Len(), want)
		}
		first := 0
		for i, e := range m {
			if e.Len == 0 || i > 0 && m[i-1].Disk == e.Disk && m[i-1].End() == e.Start {
				t.Fatalf("%s: %s map %v is not canonical at run %d", what, path, m, i)
			}
			for _, b := range []int{first, first + int(e.Len) - 1} {
				if m.At(uint64(b)) != want[b] {
					t.Fatalf("%s: %s block %d is %v, the model %v", what, path, b, m.At(uint64(b)), want[b])
				}
			}
			first += int(e.Len)
		}
	}
}

// TestAllocatorAgainstBitmap draws histories of grants, exact
// allocations, failed ones, truncates, unlinks and snapshot round trips
// on a store over three small disks, and holds the allocator to a bitmap
// after every call: no block handed out twice or freed unheld, free +
// in use = capacity, a failed allocation changes nothing, and a request
// of at most MaxGrantAhead blocks is one ascending run whenever some
// disk has a free extent that long. Each file's runs are held to a
// per-block model of its map. Restore(Snapshot()) must equal the store
// it was taken from. make verify runs it with many more seeds.
func TestAllocatorAgainstBitmap(t *testing.T) {
	disks := map[msg.NodeID]uint64{2: 96, 4: 160, 6: 40}
	paths := []string{"/a", "/b", "/c", "/d"}
	var oneRun, split, failed, restored int
	for seed := int64(0); seed < int64(*allocSeeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore(NewAllocator(disks))
		m := bitmap{}
		for id, n := range disks {
			m[id] = make([]bool, n)
		}
		files := make(map[string][]msg.BlockRef)
		for _, p := range paths {
			s.Create(p, false)
			files[p] = nil
		}
		for step := 0; step < 200; step++ {
			what := fmt.Sprintf("seed %d step %d", seed, step)
			path := paths[rng.Intn(len(paths))]
			in, _ := s.Lookup(path)
			switch op := rng.Intn(25); {
			case op < 12:
				count := 1 + rng.Intn(MaxGrantAhead+16)
				if op < 5 {
					count = 1 + rng.Intn(8)
				}
				var before []byte
				if count > m.free() {
					before = s.Snapshot()
				}
				longest, have := m.longestFree(), in.Map.Len()
				var errno msg.Errno
				if op < 5 {
					_, _, errno = s.GrantBlocks(in.Ino, uint32(count))
				} else {
					_, errno = s.AllocBlocks(in.Ino, uint32(count))
				}
				if errno != msg.OK {
					if count <= m.free() {
						t.Fatalf("%s: %d blocks asked, %d free: %v", what, count, m.free(), errno)
					}
					if !bytes.Equal(s.Snapshot(), before) {
						t.Fatalf("%s: a failed allocation of %d changed the store", what, count)
					}
					failed++
					break
				}
				got := in.Map.AppendRefs(nil)[have:]
				if tail := in.Map.Tail(have).AppendRefs(nil); !slices.Equal(tail, got) {
					t.Fatalf("%s: Tail(%d) is %v, the blocks added %v", what, have, tail, got)
				}
				m.mark(t, what, got, true)
				files[path] = append(files[path], got...)
				if len(got) <= MaxGrantAhead && longest >= len(got) {
					if runs := runsOf(got); len(runs) != 1 {
						t.Fatalf("%s: %d blocks came as %v though a free extent of %d existed", what, len(got), runs, longest)
					}
					oneRun++
				} else if len(runsOf(got)) > 1 {
					split++
				}
			case op < 18:
				keep := rng.Intn(in.Map.Len() + 1)
				gone := in.Map.AppendRefs(nil)[keep:]
				s.Truncate(in.Ino, keep)
				m.mark(t, what, gone, false)
				files[path] = files[path][:keep]
			case op < 24:
				gone := in.Map.AppendRefs(nil)
				s.Unlink(path)
				s.Create(path, false)
				m.mark(t, what, gone, false)
				files[path] = nil
			default:
				snap := s.Snapshot()
				r, err := Restore(snap)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if !bytes.Equal(r.Snapshot(), snap) {
					t.Fatalf("%s: Restore(Snapshot()) differs\n was: %s\n got: %s", what, snap, r.Snapshot())
				}
				s = r
				restored++
			}
			m.check(t, what, s.alloc)
			holdsModel(t, what, s, files)
		}
	}
	t.Logf("%d seeds: %d allocations held to one run, %d split for want of an extent, %d failed, %d restores",
		*allocSeeds, oneRun, split, failed, restored)
	if n := *allocSeeds; oneRun < n || split < n/10 || failed < n/2 || restored < n {
		t.Errorf("the histories do not reach every case: %d one-run, %d split, %d failed, %d restores over %d seeds",
			oneRun, split, failed, restored, n)
	}
}

// oldSnapshot is a snapshot as the allocator before free extents wrote
// it: round-robin placement, a never-allocated cursor per disk, LIFO free
// lists and the in-use set. /f had 12 blocks and was truncated to 8, so
// blocks 4 and 5 of each disk are free below the cursors.
const oldSnapshot = `{"Inodes":[{"Ino":1,"IsDir":true,"Version":2,"Nlink":2,"Children":{"f":2,"g":3}},` +
	`{"Ino":2,"Version":2,"Nlink":1,"Blocks":[{"Disk":100,"Num":0},{"Disk":101,"Num":0},{"Disk":100,"Num":1},` +
	`{"Disk":101,"Num":1},{"Disk":100,"Num":2},{"Disk":101,"Num":2},{"Disk":100,"Num":3},{"Disk":101,"Num":3}]},` +
	`{"Ino":3,"Version":1,"Nlink":1,"Blocks":[{"Disk":100,"Num":6},{"Disk":101,"Num":6},{"Disk":100,"Num":7}]}],` +
	`"NextIno":4,"EpochSeq":0,"Alloc":{"Disks":[{"ID":100,"Capacity":16,"Cursor":8},{"ID":101,"Capacity":16,"Cursor":7}],` +
	`"Next":1,"InUse":[{"Disk":100,"Num":0},{"Disk":100,"Num":1},{"Disk":100,"Num":2},{"Disk":100,"Num":3},` +
	`{"Disk":100,"Num":6},{"Disk":100,"Num":7},{"Disk":101,"Num":0},{"Disk":101,"Num":1},{"Disk":101,"Num":2},` +
	`{"Disk":101,"Num":3},{"Disk":101,"Num":6}],"Frees":{"100":[4,5],"101":[4,5]}}}`

// TestRestoreReadsOldLayout: free is the free lists and everything from
// each cursor on, and the next snapshot is written in extents.
func TestRestoreReadsOldLayout(t *testing.T) {
	s, err := Restore([]byte(oldSnapshot))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"n100 [{4 2} {8 8}]", "n101 [{4 2} {7 9}]"}
	for i, d := range s.alloc.disks {
		if got := fmt.Sprint(d.id, " ", d.free); got != want[i] {
			t.Errorf("disk %d: free %s, want %s", i, got, want[i])
		}
	}
	if s.alloc.InUse() != 11 {
		t.Errorf("%d blocks in use, want 11", s.alloc.InUse())
	}
	// Next was 1: the run goes to disk 101, whose first extent of 4 is at 7.
	if runs, errno := s.alloc.Alloc(4); errno != msg.OK || fmt.Sprint(runs) != "[{n101 7 4}]" {
		t.Errorf("first allocation after restore: %v %v", runs, errno)
	}
	if snap := string(s.Snapshot()); strings.Contains(snap, "Cursor") || strings.Contains(snap, "Frees") {
		t.Errorf("a restored store still writes the old layout: %s", snap)
	}
}

// perBlockSnapshot is a snapshot as the store wrote it while a map was
// one BlockRef per block: /f holds three blocks of disk 100 in a row and
// one of disk 101, /g none.
const perBlockSnapshot = `{"Inodes":[{"Ino":1,"IsDir":true,"Version":2,"Nlink":2,"Children":{"f":2,"g":3}},` +
	`{"Ino":2,"Size":16384,"Version":3,"Nlink":1,"Blocks":[{"Disk":100,"Num":0},{"Disk":100,"Num":1},` +
	`{"Disk":100,"Num":2},{"Disk":101,"Num":0}]},{"Ino":3,"Version":1,"Nlink":1}],` +
	`"NextIno":4,"EpochSeq":2,"Alloc":{"Disks":[{"ID":100,"Capacity":16,"Free":[{"Start":3,"Len":13}]},` +
	`{"ID":101,"Capacity":16,"Free":[{"Start":1,"Len":15}]}],"Next":0},"Seq":9}`

// TestRestoreReadsPerBlockMaps: a snapshot whose maps are one entry per
// block, and an Install journal record in that layout (op 13) behind it,
// come back as runs — and the next snapshot writes runs.
func TestRestoreReadsPerBlockMaps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.json")
	if err := os.WriteFile(path, []byte(perBlockSnapshot), 0o644); err != nil {
		t.Fatal(err)
	}
	// The record as the per-block build logged Install: seq, op 13, path,
	// IsDir, Size, Version, the block count, then disk | num per block.
	old := &Store{seq: 9, j: &journal{}}
	j := old.logOp(opInstall).str("/in/h").flag(false).u64(3 * 4096).u64(4).u32(3)
	for _, ref := range []msg.BlockRef{{Disk: 900, Num: 7}, {Disk: 900, Num: 8}, {Disk: 901, Num: 7}} {
		j.u32(uint32(ref.Disk)).u64(ref.Num)
	}
	j.end()
	if err := os.WriteFile(logPath(path), old.j.pending, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenJournaled(path, nil, new(blockstore.Syncer))
	if err != nil {
		t.Fatal(err)
	}
	defer s.CloseJournal()
	for p, want := range map[string]msg.Extents{
		"/f":    {{Disk: 100, Start: 0, Len: 3}, {Disk: 101, Start: 0, Len: 1}},
		"/g":    nil,
		"/in/h": {{Disk: 900, Start: 7, Len: 2}, {Disk: 901, Start: 7, Len: 1}},
	} {
		if in, errno := s.Lookup(p); errno != msg.OK || !slices.Equal(in.Map, want) {
			t.Errorf("%s: %v, map %v, want %v", p, errno, in.Map, want)
		}
	}
	if s.alloc.InUse() != 4 {
		t.Errorf("%d blocks in use, want /f's 4", s.alloc.InUse())
	}
	if snap := string(s.Snapshot()); strings.Contains(snap, `"Blocks"`) || !strings.Contains(snap, `"Runs"`) {
		t.Errorf("a restored store still writes per-block maps: %s", snap)
	}
	// The adopted blocks retire without touching this allocator's disks,
	// and /f's go back whole.
	s.Unlink("/in/h")
	s.Unlink("/f")
	if s.alloc.InUse() != 0 {
		t.Errorf("%d blocks in use after both unlinks", s.alloc.InUse())
	}
}

// TestOldLayoutLogWithAllocationIsRefused: behind an old-layout snapshot
// a log may be replayed as long as it allocates nothing; an AllocBlocks
// record was placed by the old allocator, cannot be placed again, and
// fails the recovery with the remedy in the error.
func TestOldLayoutLogWithAllocationIsRefused(t *testing.T) {
	records := func(calls func(s *Store)) []byte {
		s, err := Restore([]byte(oldSnapshot))
		if err != nil {
			t.Fatal(err)
		}
		s.j = &journal{}
		calls(s)
		return s.j.pending
	}
	recoverOld := func(log []byte) (*Store, error) {
		path := filepath.Join(t.TempDir(), "meta.json")
		if err := os.WriteFile(path, []byte(oldSnapshot), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(logPath(path), log, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenJournaled(path, nil, new(blockstore.Syncer))
		if err == nil {
			t.Cleanup(func() { s.CloseJournal() })
		}
		return s, err
	}

	s, err := recoverOld(records(func(s *Store) {
		s.Create("/h", false)
		s.Truncate(3, 1)
		s.Unlink("/f")
	}))
	if err != nil {
		t.Fatalf("a log that allocates nothing: %v", err)
	}
	if _, errno := s.Lookup("/h"); errno != msg.OK || s.alloc.InUse() != 1 {
		t.Fatalf("after replay: /h %v, %d blocks in use, want 1", errno, s.alloc.InUse())
	}

	_, err = recoverOld(records(func(s *Store) {
		s.Create("/h", false)
		s.AllocBlocks(4, 4)
	}))
	if err == nil || !strings.Contains(err.Error(), "recover once with the build that wrote it") {
		t.Fatalf("a log with an AllocBlocks record behind an old snapshot: %v", err)
	}
}

// BenchmarkAllocatorChurn is the allocator's steady state under appenders
// that wrap: sixteen grants of MaxGrantAhead, then all 1 024 blocks freed.
func BenchmarkAllocatorChurn(b *testing.B) {
	a := NewAllocator(map[msg.NodeID]uint64{1: 1 << 16, 2: 1 << 16})
	held := make(msg.Extents, 0, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		held = held[:0]
		for g := 0; g < 16; g++ {
			runs, errno := a.Alloc(MaxGrantAhead)
			if errno != msg.OK {
				b.Fatal(errno)
			}
			held = held.Append(runs...)
		}
		a.Free(held)
	}
}
