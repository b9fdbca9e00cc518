package meta

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/blockstore"
	"repro/internal/msg"
)

// Persistence for live lease authorities (DESIGN.md §15).
//
// The paper keeps metadata on server-private highly-available storage
// (§1.1) and assumes it survives a server crash; in the simulator that
// is modeled by restarts and replicas sharing one *Store. A live server
// is a process, so its Store is made durable instead, as two files:
//
//	<path>      a snapshot: the WHOLE store as JSON — inodes, allocation
//	            maps, the epoch counter, the handoff ledgers — and seq,
//	            the number of the last mutation it contains
//	<path>.log  a redo journal: one record per mutator CALL made since
//
// Record: len u32 | crc32c u32 | seq u64 | op u8 | args, little-endian.
// len counts the bytes after the 8-byte header and the CRC (Castagnoli)
// covers exactly those. op names a mutator (journal.go) and args are its
// arguments: strings as u32 length + bytes, a block map as a u32 count
// of runs, each disk u32 | start u64 | len u32. (An Install record
// before runs, op 13, held one disk u32 | num u64 per block; replay
// still reads it.) The store is deterministic — first-fit runs over sorted per-disk
// free extents with a rotation cursor (alloc.go), monotone inode, handoff
// and epoch counters — so the call is all a record needs, and the call
// is logged whatever its outcome: a Create under auto-parents
// materializes ancestors even when it then returns ErrExist.
//
// An inode's map is in the snapshot as its runs (Runs); a snapshot that
// holds it one block per entry (Blocks) is read into runs. The
// allocator's part of the snapshot is each disk's free extents and the
// rotation cursor, O(fragments). Restore still reads the layout
// before it (per-block in-use set, LIFO free lists, a never-allocated
// cursor per disk) as free = the free lists ∪ [cursor, capacity). What
// it cannot rebuild is where the old allocator would have put the next
// block, so OpenJournaled refuses a log that holds an AllocBlocks record
// behind such a snapshot.
//
// Replay rule (OpenJournaled): load the snapshot (none = empty store),
// then re-invoke the mutator of every record, in order, whose seq is
// above the snapshot's, which must be consecutive. Stop at the first
// record whose length or CRC fails: a torn tail is by construction a
// mutation whose reply never left. A record that passes its CRC but
// skips a seq or does not parse is corruption and fails the recovery.
//
// Checkpoint rule: once the log outgrows max(1 MiB, 4 × the last
// snapshot), Commit installs a new snapshot with blockstore's
// Syncer.Install — temp file, fsync, rename, fsync of the directory —
// and then replaces the log with an empty one the same way. A crash between the two leaves a log whose records the
// snapshot's seq makes replay skip. A checkpoint is O(namespace) and is
// paid once per O(namespace) bytes of log, so a mutation's amortized
// cost does not grow with the namespace. Recovery always ends with one,
// which bounds the next replay and leaves a deposed writer's descriptor
// on an unlinked file; a writer that finds the log at its path is no
// longer the file it holds open refuses to checkpoint (ErrSuperseded).
//
// What is promised. Commit returns after write(2): the server commits
// before every message it sends, so every mutation a reply acknowledges
// survives the death of the process (kill -9). It does NOT fsync, so
// after a power loss the store is only guaranteed to come back at least
// as new as the last checkpoint, plus whatever prefix of the log the
// kernel had written back — a consistent state, but possibly older than
// the last acknowledged operation. Per-reply group-commit fsync is
// ROADMAP item 3's remainder.

type inodeSnap struct {
	Ino      msg.ObjectID
	IsDir    bool                    `json:",omitempty"`
	Size     uint64                  `json:",omitempty"`
	Version  uint64                  `json:",omitempty"`
	Nlink    uint32                  `json:",omitempty"`
	Runs     msg.Extents             `json:",omitempty"`
	Children map[string]msg.ObjectID `json:",omitempty"`
	// Blocks is the map one entry per block, as the layout before Runs
	// held it: read and never written.
	Blocks []msg.BlockRef `json:",omitempty"`
}

type diskSnap struct {
	ID       msg.NodeID
	Capacity uint64
	Free     []extent `json:",omitempty"`
	// Cursor is the old layout's, read and never written: every block
	// from it to Capacity was free.
	Cursor *uint64 `json:",omitempty"`
}

type allocSnap struct {
	Disks []diskSnap
	Next  int
	// Frees is the old layout's free lists, read and never written.
	Frees   map[msg.NodeID][]uint64 `json:",omitempty"`
	Foreign []msg.BlockRef          `json:",omitempty"`
}

type importSnap struct {
	Src   msg.NodeID
	HID   uint64
	Errno msg.Errno
}

type storeSnap struct {
	Inodes      []inodeSnap
	NextIno     msg.ObjectID
	EpochSeq    msg.Epoch
	AutoParents bool `json:",omitempty"`
	Alloc       allocSnap
	Exports     []*Export    `json:",omitempty"`
	ExportSeq   uint64       `json:",omitempty"`
	Imports     []importSnap `json:",omitempty"`
	// Seq is the journal sequence number of the last mutation the
	// snapshot contains; 0 for a store that was never journalled.
	Seq uint64 `json:",omitempty"`
}

func sortedRefs(set map[msg.BlockRef]bool) []msg.BlockRef {
	out := make([]msg.BlockRef, 0, len(set))
	for ref := range set {
		out = append(out, ref)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Disk != out[j].Disk {
			return out[i].Disk < out[j].Disk
		}
		return out[i].Num < out[j].Num
	})
	return out
}

// Snapshot serializes the store deterministically.
func (s *Store) Snapshot() []byte {
	snap := storeSnap{
		NextIno:     s.nextIno,
		EpochSeq:    s.epochSeq,
		AutoParents: s.autoParents,
		ExportSeq:   s.exportSeq,
		Seq:         s.seq,
	}
	for _, ino := range sortedInos(s.inodes) {
		in := s.inodes[ino]
		snap.Inodes = append(snap.Inodes, inodeSnap{
			Ino: in.Ino, IsDir: in.IsDir, Size: in.Size, Version: in.Version,
			Nlink: in.Nlink, Runs: in.Map, Children: in.children,
		})
	}
	a := s.alloc
	snap.Alloc = allocSnap{Next: a.next, Foreign: sortedRefs(a.foreign)}
	for _, d := range a.disks {
		snap.Alloc.Disks = append(snap.Alloc.Disks, diskSnap{ID: d.id, Capacity: d.capacity, Free: d.free})
	}
	for _, e := range s.PendingExports() {
		snap.Exports = append(snap.Exports, e)
	}
	for _, k := range sortedImportKeys(s.imports) {
		snap.Imports = append(snap.Imports, importSnap{k.Src, k.HID, s.imports[k]})
	}
	b, err := json.Marshal(&snap)
	if err != nil {
		panic(fmt.Sprintf("meta: snapshot marshal: %v", err))
	}
	return b
}

func sortedInos(m map[msg.ObjectID]*Inode) []msg.ObjectID {
	out := make([]msg.ObjectID, 0, len(m))
	for ino := range m {
		out = append(out, ino)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedImportKeys(m map[importKey]msg.Errno) []importKey {
	out := make([]importKey, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].HID < out[j].HID
	})
	return out
}

// Restore rebuilds a store from a Snapshot, of this layout or the old.
func Restore(data []byte) (*Store, error) {
	s, _, err := restore(data)
	return s, err
}

// restore is Restore, also reporting whether the snapshot had the old
// allocator layout.
func restore(data []byte) (s *Store, oldLayout bool, err error) {
	var snap storeSnap
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, false, fmt.Errorf("meta: snapshot decode: %w", err)
	}
	a := &Allocator{
		next:    snap.Alloc.Next,
		foreign: make(map[msg.BlockRef]bool, len(snap.Alloc.Foreign)),
	}
	for _, d := range snap.Alloc.Disks {
		ds := diskSpace{id: d.ID, capacity: d.Capacity}
		free := d.Free
		if d.Cursor != nil {
			oldLayout = true
			free = []extent{{*d.Cursor, d.Capacity - *d.Cursor}}
			for _, b := range snap.Alloc.Frees[d.ID] {
				free = append(free, extent{b, 1})
			}
		}
		for _, e := range free {
			if !ds.give(e.Start, e.Len) {
				return nil, false, fmt.Errorf("meta: snapshot decode: disk %v frees [%d, %d) twice or past its end", d.ID, e.Start, e.end())
			}
		}
		a.disks = append(a.disks, ds)
	}
	for _, ref := range snap.Alloc.Foreign {
		a.foreign[ref] = true
	}
	s = &Store{
		inodes:      make(map[msg.ObjectID]*Inode, len(snap.Inodes)),
		nextIno:     snap.NextIno,
		alloc:       a,
		epochSeq:    snap.EpochSeq,
		autoParents: snap.AutoParents,
		exports:     make(map[uint64]*Export, len(snap.Exports)),
		exportSeq:   snap.ExportSeq,
		migrating:   make(map[msg.ObjectID]uint64),
		imports:     make(map[importKey]msg.Errno, len(snap.Imports)),
		seq:         snap.Seq,
	}
	for i := range snap.Inodes {
		in := &snap.Inodes[i]
		node := &Inode{
			Ino: in.Ino, IsDir: in.IsDir, Size: in.Size, Version: in.Version,
			Nlink: in.Nlink, Map: in.Runs, children: in.Children,
		}
		for _, ref := range in.Blocks {
			node.Map = node.Map.Append(msg.Extent{Disk: ref.Disk, Start: ref.Num, Len: 1})
		}
		if node.IsDir && node.children == nil {
			node.children = make(map[string]msg.ObjectID)
		}
		s.inodes[node.Ino] = node
	}
	// The parent links are not in the snapshot: the children maps are.
	if root := s.inodes[RootIno]; root != nil {
		root.parent = RootIno
	}
	for _, dir := range s.inodes {
		for _, child := range dir.children {
			if in := s.inodes[child]; in != nil {
				in.parent = dir.Ino
			}
		}
	}
	for _, e := range snap.Exports {
		s.exports[e.HID] = e
		s.migrating[e.Ino] = e.HID
	}
	for _, im := range snap.Imports {
		s.imports[importKey{Src: im.Src, HID: im.HID}] = im.Errno
	}
	return s, oldLayout, nil
}

// SaveSnapshot writes the store to path durably: a crash at any instant,
// power loss included, leaves either the previous snapshot or the new
// one, never a torn file.
func (s *Store) SaveSnapshot(path string) error {
	_, err := s.saveSnapshot(path, new(blockstore.Syncer))
	return err
}

// saveSnapshot is SaveSnapshot through syncer, also returning the
// snapshot's size.
func (s *Store) saveSnapshot(path string, syncer *blockstore.Syncer) (int, error) {
	data := s.Snapshot()
	f, err := syncer.Install(path, data)
	if err != nil {
		return 0, fmt.Errorf("meta: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("meta: snapshot close: %w", err)
	}
	return len(data), nil
}

// loadSnapshot rebuilds a store from a snapshot file and reports whether
// the snapshot had the old allocator layout. A missing file is not an
// error: it returns a nil store, meaning no prior regime persisted
// anything (cold boot).
func loadSnapshot(path string) (*Store, bool, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return restore(data)
}

// CurrentEpoch reads the durable epoch counter without advancing it. A
// nonzero value means clients registered under some prior regime — the
// signal a newly activated replica uses to decide whether grace-period
// recovery is needed.
func (s *Store) CurrentEpoch() msg.Epoch { return s.epochSeq }
