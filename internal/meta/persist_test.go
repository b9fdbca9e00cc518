package meta

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/msg"
)

func TestSnapshotRoundTrip(t *testing.T) {
	alloc := NewAllocator(map[msg.NodeID]uint64{100: 64, 101: 64})
	s := NewStore(alloc)
	s.SetAutoParents(true)
	if _, errno := s.Create("/a/b/f", false); errno != msg.OK {
		t.Fatalf("create: %v", errno)
	}
	in, _ := s.Lookup("/a/b/f")
	if _, errno := s.AllocBlocks(in.Ino, 5); errno != msg.OK {
		t.Fatalf("alloc: %v", errno)
	}
	s.SetSize(in.Ino, 5*4096)
	s.NextEpoch()
	s.NextEpoch()
	s.BeginExport(in.Ino, 2, "/a/b/f", "/x/f")
	s.RecordImport(3, 7, msg.OK)

	restored, err := Restore(s.Snapshot())
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !bytes.Equal(restored.Snapshot(), s.Snapshot()) {
		t.Fatal("snapshot not stable across restore")
	}
	if restored.CurrentEpoch() != 2 {
		t.Fatalf("epoch: got %d want 2", restored.CurrentEpoch())
	}
	rin, errno := restored.Lookup("/a/b/f")
	if errno != msg.OK || rin.Size != 5*4096 || rin.Map.Len() != 5 {
		t.Fatalf("restored inode: %+v errno=%v", rin, errno)
	}
	if !restored.Migrating(rin.Ino) {
		t.Fatal("pending export lost")
	}
	if e, ok := restored.ImportResult(3, 7); !ok || e != msg.OK {
		t.Fatal("import ledger lost")
	}
	if restored.alloc.InUse() != s.alloc.InUse() {
		t.Fatalf("allocator in-use mismatch: %d vs %d", restored.alloc.InUse(), s.alloc.InUse())
	}
	// The restored allocator must keep handing out non-colliding blocks.
	runs, errno := restored.alloc.Alloc(3)
	if errno != msg.OK {
		t.Fatalf("alloc after restore: %v", errno)
	}
	for _, ref := range runs.AppendRefs(nil) {
		for _, old := range in.Map.AppendRefs(nil) {
			if ref == old {
				t.Fatalf("restored allocator reissued live block %v", ref)
			}
		}
	}
}

func TestSaveLoadSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.snap")
	if s, _, err := loadSnapshot(path); err != nil || s != nil {
		t.Fatalf("missing snapshot should be (nil, nil), got (%v, %v)", s, err)
	}
	s := NewStore(NewAllocator(map[msg.NodeID]uint64{100: 16}))
	s.Create("/f", false)
	if err := s.SaveSnapshot(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	loaded, _, err := loadSnapshot(path)
	if err != nil || loaded == nil {
		t.Fatalf("load: %v", err)
	}
	if _, errno := loaded.Lookup("/f"); errno != msg.OK {
		t.Fatalf("lookup after load: %v", errno)
	}
}
