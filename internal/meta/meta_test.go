package meta

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/msg"
)

func newStore() *Store {
	return NewStore(NewAllocator(map[msg.NodeID]uint64{9: 1024}))
}

func TestSplitPath(t *testing.T) {
	cases := []struct {
		in   string
		want []string
		ok   bool
	}{
		{"/", []string{}, true},
		{"/a", []string{"a"}, true},
		{"/a/b/c", []string{"a", "b", "c"}, true},
		{"//a///b", []string{"a", "b"}, true},
		{"/a/./b", []string{"a", "b"}, true},
		{"/a/../b", []string{"b"}, true},
		{"/..", nil, false},
		{"relative", nil, false},
		{"", nil, false},
	}
	for _, c := range cases {
		got, ok := SplitPath(c.in)
		if ok != c.ok {
			t.Errorf("SplitPath(%q) ok = %v, want %v", c.in, ok, c.ok)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("SplitPath(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("SplitPath(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

func TestCreateLookup(t *testing.T) {
	s := newStore()
	dir, errno := s.Create("/docs", true)
	if errno != msg.OK || !dir.IsDir {
		t.Fatalf("mkdir: %v", errno)
	}
	f, errno := s.Create("/docs/a.txt", false)
	if errno != msg.OK || f.IsDir {
		t.Fatalf("create: %v", errno)
	}
	got, errno := s.Lookup("/docs/a.txt")
	if errno != msg.OK || got.Ino != f.Ino {
		t.Fatalf("lookup: %v, ino %v vs %v", errno, got, f)
	}
	if _, errno := s.Lookup("/docs/missing"); errno != msg.ErrNoEnt {
		t.Fatalf("missing lookup errno = %v", errno)
	}
	if _, errno := s.Lookup("/docs/a.txt/x"); errno != msg.ErrNotDir {
		t.Fatalf("file-as-dir errno = %v", errno)
	}
	root, errno := s.Lookup("/")
	if errno != msg.OK || root.Ino != RootIno {
		t.Fatalf("root lookup: %v %v", errno, root)
	}
}

func TestCreateErrors(t *testing.T) {
	s := newStore()
	if _, errno := s.Create("/a", false); errno != msg.OK {
		t.Fatal(errno)
	}
	if _, errno := s.Create("/a", false); errno != msg.ErrExist {
		t.Fatalf("duplicate create errno = %v", errno)
	}
	if _, errno := s.Create("/nodir/x", false); errno != msg.ErrNoEnt {
		t.Fatalf("create under missing dir errno = %v", errno)
	}
	if _, errno := s.Create("/a/x", false); errno != msg.ErrNotDir {
		t.Fatalf("create under file errno = %v", errno)
	}
	if _, errno := s.Create("relative", false); errno != msg.ErrNoEnt {
		t.Fatalf("relative create errno = %v", errno)
	}
}

func TestUnlink(t *testing.T) {
	s := newStore()
	s.Create("/d", true)
	s.Create("/d/f", false)
	if errno := s.Unlink("/d"); errno != msg.ErrExist {
		t.Fatalf("unlink non-empty dir errno = %v", errno)
	}
	if errno := s.Unlink("/d/f"); errno != msg.OK {
		t.Fatalf("unlink file errno = %v", errno)
	}
	if errno := s.Unlink("/d"); errno != msg.OK {
		t.Fatalf("unlink empty dir errno = %v", errno)
	}
	if _, errno := s.Lookup("/d"); errno != msg.ErrNoEnt {
		t.Fatal("dir still present after unlink")
	}
	if errno := s.Unlink("/d"); errno != msg.ErrNoEnt {
		t.Fatalf("double unlink errno = %v", errno)
	}
	if s.Count() != 1 {
		t.Fatalf("inode count = %d, want 1 (root)", s.Count())
	}
}

func TestUnlinkFreesBlocks(t *testing.T) {
	alloc := NewAllocator(map[msg.NodeID]uint64{9: 8})
	s := NewStore(alloc)
	f, _ := s.Create("/f", false)
	if _, errno := s.AllocBlocks(f.Ino, 8); errno != msg.OK {
		t.Fatal(errno)
	}
	if _, errno := s.AllocBlocks(f.Ino, 1); errno != msg.ErrNoSpace {
		t.Fatalf("over-alloc errno = %v", errno)
	}
	if errno := s.Unlink("/f"); errno != msg.OK {
		t.Fatal(errno)
	}
	if alloc.InUse() != 0 {
		t.Fatalf("blocks still in use after unlink: %d", alloc.InUse())
	}
	// Space is reusable.
	g, _ := s.Create("/g", false)
	if _, errno := s.AllocBlocks(g.Ino, 8); errno != msg.OK {
		t.Fatalf("realloc errno = %v", errno)
	}
}

func TestReaddirSorted(t *testing.T) {
	s := newStore()
	s.Create("/b", false)
	s.Create("/a", true)
	s.Create("/c", false)
	entries, errno := s.Readdir(RootIno)
	if errno != msg.OK || len(entries) != 3 {
		t.Fatalf("readdir: %v %v", errno, entries)
	}
	if entries[0].Name != "a" || entries[1].Name != "b" || entries[2].Name != "c" {
		t.Fatalf("not sorted: %v", entries)
	}
	if !entries[0].IsDir || entries[1].IsDir {
		t.Fatal("IsDir flags wrong")
	}
	f, _ := s.Lookup("/b")
	if _, errno := s.Readdir(f.Ino); errno != msg.ErrNotDir {
		t.Fatalf("readdir on file errno = %v", errno)
	}
	if _, errno := s.Readdir(999); errno != msg.ErrNoEnt {
		t.Fatalf("readdir missing errno = %v", errno)
	}
}

func TestSetSizeBumpsVersion(t *testing.T) {
	s := newStore()
	f, _ := s.Create("/f", false)
	v0 := f.Version
	in, errno := s.SetSize(f.Ino, 100)
	if errno != msg.OK || in.Size != 100 {
		t.Fatalf("SetSize: %v %v", errno, in)
	}
	if in.Version <= v0 {
		t.Fatal("version not bumped")
	}
	v1 := in.Version
	if in, _ = s.SetSize(f.Ino, 100); in.Version != v1 {
		t.Fatal("no-op SetSize must not bump version")
	}
	if _, errno := s.SetSize(RootIno, 5); errno != msg.ErrIsDir {
		t.Fatalf("SetSize on dir errno = %v", errno)
	}
}

func TestAllocBlocksAndTruncate(t *testing.T) {
	s := newStore()
	f, _ := s.Create("/f", false)
	in, errno := s.AllocBlocks(f.Ino, 5)
	if errno != msg.OK || in.Map.Len() != 5 {
		t.Fatalf("alloc: %v %v", errno, in.Map)
	}
	in, errno = s.Truncate(f.Ino, 2)
	if errno != msg.OK || in.Map.Len() != 2 {
		t.Fatalf("truncate: %v %v", errno, in.Map)
	}
	// Growing truncate is a no-op.
	in, _ = s.Truncate(f.Ino, 10)
	if in.Map.Len() != 2 {
		t.Fatal("truncate grew the file")
	}
	if _, errno := s.AllocBlocks(RootIno, 1); errno != msg.ErrIsDir {
		t.Fatalf("alloc on dir errno = %v", errno)
	}
}

// TestTruncateClampsSize: nothing of a file lies past its last block. A
// Truncate that left Size where it was made Stat report the old length
// for ever, and made a client that compares a write's end with the size
// it holds believe that no later write extends the file.
func TestTruncateClampsSize(t *testing.T) {
	s := newStore()
	f, _ := s.Create("/f", false)
	s.AllocBlocks(f.Ino, 5)
	s.SetSize(f.Ino, 5*4096-100)
	if in, _ := s.Truncate(f.Ino, 5); in.Size != 5*4096-100 {
		t.Fatalf("a truncate that frees nothing moved the size to %d", in.Size)
	}
	if in, _ := s.Truncate(f.Ino, 2); in.Size != 2*4096 {
		t.Fatalf("size after truncating to 2 blocks = %d, want %d", in.Size, 2*4096)
	}
	if in, _ := s.Truncate(f.Ino, 0); in.Size != 0 {
		t.Fatalf("size after truncating to nothing = %d", in.Size)
	}
}

// TestGrantBlocksRunsAhead pins the grant policy: max(n, min(blocks the
// file has, MaxGrantAhead)), so a file appended to one block at a time
// doubles up to the cap and then grows by the cap.
func TestGrantBlocksRunsAhead(t *testing.T) {
	s := NewStore(NewAllocator(map[msg.NodeID]uint64{1: 1 << 12}))
	f, _ := s.Create("/f", false)
	want := []int{1, 2, 4, 8, 16, 32, 64, 128, 192, 256}
	for i, total := range want {
		before := f.Map.Len()
		in, first, errno := s.GrantBlocks(f.Ino, 1)
		if errno != msg.OK || first != before || in.Map.Len() != total {
			t.Fatalf("grant %d: errno %v, first %d (file had %d), file now %d blocks, want %d",
				i, errno, first, before, in.Map.Len(), total)
		}
	}
	// A request larger than the run ahead is served as asked.
	if in, first, _ := s.GrantBlocks(f.Ino, 100); first != 256 || in.Map.Len() != 356 {
		t.Fatalf("grant of 100 at 256 blocks: first %d, file now %d blocks", first, in.Map.Len())
	}
	if _, _, errno := s.GrantBlocks(999, 1); errno != msg.ErrNoEnt {
		t.Fatalf("grant on a missing inode: %v", errno)
	}
	if _, _, errno := s.GrantBlocks(RootIno, 1); errno != msg.ErrIsDir {
		t.Fatalf("grant on a directory: %v", errno)
	}
}

// TestGrantBlocksFallsBackToExact: running ahead never fails a request
// the exact count would have satisfied, and an attempt that fails takes
// nothing.
func TestGrantBlocksFallsBackToExact(t *testing.T) {
	alloc := NewAllocator(map[msg.NodeID]uint64{1: 6, 2: 6})
	s := NewStore(alloc)
	f, _ := s.Create("/f", false)
	if _, errno := s.AllocBlocks(f.Ino, 8); errno != msg.OK {
		t.Fatal(errno)
	}
	// 4 blocks free: the run of 8 does not fit, the 2 asked for do.
	in, first, errno := s.GrantBlocks(f.Ino, 2)
	if errno != msg.OK || first != 8 || in.Map.Len() != 10 || alloc.InUse() != 10 {
		t.Fatalf("nearly full: errno %v, first %d, %d blocks, %d in use; want OK, 8, 10, 10",
			errno, first, in.Map.Len(), alloc.InUse())
	}
	// 2 free: neither the run nor the 3 asked for fit.
	if _, _, errno := s.GrantBlocks(f.Ino, 3); errno != msg.ErrNoSpace {
		t.Fatalf("over-ask: %v, want ErrNoSpace", errno)
	}
	if alloc.InUse() != 10 || f.Map.Len() != 10 {
		t.Fatalf("a failed grant kept blocks: %d in use, file has %d", alloc.InUse(), f.Map.Len())
	}
	if _, _, errno := s.GrantBlocks(f.Ino, 2); errno != msg.OK || alloc.InUse() != 12 {
		t.Fatalf("the last two blocks: %v, %d in use", errno, alloc.InUse())
	}
}

// TestAllocatorStripes: a request is cut into runs of at most
// MaxGrantAhead blocks, each one ascending run on one disk, and the disk
// rotates per run, not per block.
func TestAllocatorStripes(t *testing.T) {
	a := NewAllocator(map[msg.NodeID]uint64{3: 200, 5: 200})
	for _, c := range []struct {
		count int
		want  []run
	}{
		{4, []run{{3, 0, 4}}},
		{4, []run{{5, 0, 4}}},
		{150, []run{{3, 4, 64}, {5, 4, 64}, {3, 68, 22}}},
		{64, []run{{5, 68, 64}}},
	} {
		runs, errno := a.Alloc(c.count)
		if got := runsOf(runs.AppendRefs(nil)); errno != msg.OK || !reflect.DeepEqual(got, c.want) {
			t.Fatalf("Alloc(%d) = %v %v, want runs %v", c.count, got, errno, c.want)
		}
	}
}

func TestAllocatorExhaustionRollsBack(t *testing.T) {
	a := NewAllocator(map[msg.NodeID]uint64{3: 4})
	if _, errno := a.Alloc(3); errno != msg.OK {
		t.Fatal(errno)
	}
	if _, errno := a.Alloc(2); errno != msg.ErrNoSpace {
		t.Fatalf("errno = %v, want ErrNoSpace", errno)
	}
	// The failed Alloc must have returned its partial grab.
	if a.InUse() != 3 {
		t.Fatalf("in-use = %d after failed alloc, want 3", a.InUse())
	}
	if runs, errno := a.Alloc(1); errno != msg.OK || runs.Len() != 1 {
		t.Fatal("remaining block not allocatable")
	}
}

func TestAllocatorDoubleFreePanics(t *testing.T) {
	a := NewAllocator(map[msg.NodeID]uint64{3: 4})
	refs, _ := a.Alloc(1)
	a.Free(refs)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	a.Free(refs)
}

func TestAllocatorNoDisks(t *testing.T) {
	a := NewAllocator(nil)
	if _, errno := a.Alloc(1); errno != msg.ErrNoSpace {
		t.Fatalf("errno = %v", errno)
	}
}

// Property: alloc never hands out the same block twice while it is in use.
func TestAllocatorUniqueProperty(t *testing.T) {
	f := func(counts []uint8) bool {
		a := NewAllocator(map[msg.NodeID]uint64{2: 64, 4: 64, 6: 64})
		seen := make(map[msg.BlockRef]bool)
		var held []msg.Extents
		for _, c := range counts {
			n := int(c%8) + 1
			refs, errno := a.Alloc(n)
			if errno != msg.OK {
				// Exhausted: free everything and continue.
				for _, h := range held {
					for _, r := range h.AppendRefs(nil) {
						delete(seen, r)
					}
					a.Free(h)
				}
				held = nil
				continue
			}
			for _, r := range refs.AppendRefs(nil) {
				if seen[r] {
					return false
				}
				seen[r] = true
			}
			held = append(held, refs)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAttrRendering(t *testing.T) {
	s := newStore()
	f, _ := s.Create("/f", false)
	s.SetSize(f.Ino, 4096)
	a := f.Attr()
	if a.Ino != f.Ino || a.Size != 4096 || a.IsDir || a.Nlink != 1 {
		t.Fatalf("attr = %+v", a)
	}
}

func TestRename(t *testing.T) {
	s := newStore()
	s.Create("/dir", true)
	f, _ := s.Create("/dir/f", false)
	if errno := s.Rename("/dir/f", "/f2"); errno != msg.OK {
		t.Fatalf("rename: %v", errno)
	}
	got, errno := s.Lookup("/f2")
	if errno != msg.OK || got.Ino != f.Ino {
		t.Fatal("renamed file wrong")
	}
	if _, errno := s.Lookup("/dir/f"); errno != msg.ErrNoEnt {
		t.Fatal("old path still resolves")
	}
	// Destination exists → refuse.
	s.Create("/f3", false)
	if errno := s.Rename("/f2", "/f3"); errno != msg.ErrExist {
		t.Fatalf("rename onto existing = %v", errno)
	}
	// Missing source → ErrNoEnt.
	if errno := s.Rename("/ghost", "/any"); errno != msg.ErrNoEnt {
		t.Fatalf("rename of missing = %v", errno)
	}
}

func TestRenameDirectoryMovesSubtree(t *testing.T) {
	s := newStore()
	s.Create("/a", true)
	s.Create("/a/b", true)
	s.Create("/a/b/f", false)
	s.Create("/c", true)
	if errno := s.Rename("/a/b", "/c/b2"); errno != msg.OK {
		t.Fatalf("dir rename: %v", errno)
	}
	if _, errno := s.Lookup("/c/b2/f"); errno != msg.OK {
		t.Fatal("subtree lost")
	}
	// Moving a directory under itself is refused.
	if errno := s.Rename("/c", "/c/b2/evil"); errno != msg.ErrConflict {
		t.Fatalf("cycle rename = %v, want ErrConflict", errno)
	}
}

// TestCompleteExportAfterDirectoryRename: a directory above a file in
// handoff may be renamed on the same shard while the handoff is pending.
// Settling it must still take the file's name away, wherever it now is,
// and not leave a name for an inode that is gone.
func TestCompleteExportAfterDirectoryRename(t *testing.T) {
	s := newStore()
	s.Create("/d", true)
	f, _ := s.Create("/d/f", false)
	e := s.BeginExport(f.Ino, 2, "/d/f", "/x/f")
	if errno := s.Rename("/d", "/e"); errno != msg.OK {
		t.Fatalf("rename of the directory above: %v", errno)
	}
	s.CompleteExport(e.HID)
	if in, errno := s.Lookup("/e/f"); errno != msg.ErrNoEnt {
		t.Fatalf("after the export settled, /e/f resolves to %v (%v)", in, errno)
	}
	if d, _ := s.Lookup("/e"); !d.Empty() {
		t.Fatal("the renamed directory still names the exported file")
	}
	checkParents(t, s)
}

// TestStoreModelProperty replays random create/unlink/rename sequences
// against a simple model (path → isDir) and checks the store agrees on
// existence, kind, and errno class for lookups.
func TestStoreModelProperty(t *testing.T) {
	paths := []string{"/a", "/b", "/d1", "/d1/x", "/d1/y", "/d2", "/d2/z"}
	f := func(ops []uint16) bool {
		s := newStore()
		model := map[string]bool{} // path → isDir
		parentOK := func(p string) bool {
			switch p {
			case "/a", "/b", "/d1", "/d2":
				return true
			default:
				// nested: parent must exist and be a dir
				dir := p[:strings.LastIndex(p, "/")]
				isDir, ok := model[dir]
				return ok && isDir
			}
		}
		for _, op := range ops {
			p := paths[int(op)%len(paths)]
			isDir := op&0x100 != 0
			switch op % 3 {
			case 0: // create
				_, errno := s.Create(p, isDir)
				_, exists := model[p]
				switch {
				case exists && errno != msg.ErrExist:
					return false
				case !exists && parentOK(p) && errno != msg.OK:
					return false
				case !exists && !parentOK(p) && errno == msg.OK:
					// A missing/invalid parent must fail (ErrNoEnt or
					// ErrNotDir, depending on what blocks the walk).
					return false
				}
				if errno == msg.OK {
					model[p] = isDir
				}
			case 1: // unlink
				errno := s.Unlink(p)
				wasDir, exists := model[p]
				hasChild := false
				for q := range model {
					if strings.HasPrefix(q, p+"/") {
						hasChild = true
					}
				}
				switch {
				case !exists && errno == msg.OK:
					// Missing paths fail with some not-found class
					// (ErrNoEnt, or ErrNotDir when a file blocks the walk).
					return false
				case exists && wasDir && hasChild && errno != msg.ErrExist:
					return false
				case exists && (!wasDir || !hasChild) && errno != msg.OK:
					return false
				}
				if errno == msg.OK {
					delete(model, p)
				}
			case 2: // lookup
				_, errno := s.Lookup(p)
				if _, exists := model[p]; exists != (errno == msg.OK) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// checkParents compares every inode's parent link with what a scan of the
// children maps says, and fails on a name whose inode is gone.
func checkParents(t *testing.T, s *Store) {
	t.Helper()
	want := map[msg.ObjectID]msg.ObjectID{RootIno: RootIno}
	for _, dir := range s.inodes {
		for name, child := range dir.children {
			if s.inodes[child] == nil {
				t.Fatalf("directory %v names %q, inode %v, which does not exist", dir.Ino, name, child)
			}
			want[child] = dir.Ino
		}
	}
	for ino, in := range s.inodes {
		if p, named := want[ino]; named && in.parent != p {
			t.Fatalf("inode %v: parent link %v, children maps say %v", ino, in.parent, p)
		}
	}
}

// TestWalkReturnsTheChain: Walk agrees with Lookup and names the
// directory each component was looked up in, down to the one a missing
// name is missing from.
func TestWalkReturnsTheChain(t *testing.T) {
	s := newStore()
	d, _ := s.Create("/d", true)
	e, _ := s.Create("/d/e", true)
	f, _ := s.Create("/d/e/f", false)
	for _, c := range []struct {
		path  string
		node  *Inode
		dirs  []msg.ObjectID
		rest  int
		errno msg.Errno
	}{
		{"/", s.inodes[RootIno], nil, 0, msg.OK},
		{"/d/e/f", f, []msg.ObjectID{RootIno, d.Ino, e.Ino}, 0, msg.OK},
		{"/d/e", e, []msg.ObjectID{RootIno, d.Ino}, 0, msg.OK},
		{"/d/e/g", nil, []msg.ObjectID{RootIno, d.Ino, e.Ino}, 0, msg.ErrNoEnt},
		{"/d/x/y/z", nil, []msg.ObjectID{RootIno, d.Ino}, 2, msg.ErrNoEnt},
		{"/d/e/f/g", nil, []msg.ObjectID{RootIno, d.Ino, e.Ino}, 1, msg.ErrNotDir},
		{"relative", nil, nil, 0, msg.ErrNoEnt},
	} {
		w := s.Walk(c.path)
		if w.Node != c.node || w.Errno != c.errno || w.Rest != c.rest || !reflect.DeepEqual(append([]msg.ObjectID(nil), w.Dirs...), c.dirs) {
			t.Errorf("Walk(%q) = %+v, want node %v dirs %v rest %d errno %v", c.path, w, c.node, c.dirs, c.rest, c.errno)
		}
		if in, errno := s.Lookup(c.path); in != w.Node || errno != w.Errno {
			t.Errorf("Walk(%q) and Lookup disagree: %v/%v against %v/%v", c.path, w.Node, w.Errno, in, errno)
		}
	}
	checkParents(t, s)
	if f.Parent() != e.Ino || s.inodes[RootIno].Parent() != RootIno {
		t.Errorf("Parent: f in %v, root in %v", f.Parent(), s.inodes[RootIno].Parent())
	}
}

// Inode must stay in the 80-byte size class: the metadata workloads hold
// one per file, and every Create allocates one.
func TestInodeFitsItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Inode{}); n > 80 {
		t.Fatalf("Inode is %d bytes, past the 80-byte size class", n)
	}
}
