// Package meta implements the Storage Tank server's private metadata
// store: the directory tree, inodes, and the allocation maps that place
// file blocks on the shared SAN disks. Per the paper (§1.1), metadata
// lives on server-private storage — the shared disks hold only file data
// blocks — so this package is purely server-side state.
package meta

import (
	"sort"
	"strings"

	"repro/internal/blockstore"
	"repro/internal/msg"
)

// RootIno is the inode number of the root directory.
const RootIno msg.ObjectID = 1

// Inode is one file-system object.
//
// Its fields are ordered to keep it in the 80-byte size class: the
// metadata workloads hold an inode per file.
type Inode struct {
	Ino     msg.ObjectID
	Size    uint64
	Version uint64 // modification counter, stands in for mtime
	Nlink   uint32
	IsDir   bool
	// Map is where the file's blocks lie, as runs (msg.Extents).
	Map msg.Extents
	// perBlock holds Blocks, Map one entry per block, for readers outside
	// the server that index it directly. Only Lookup sets it, as it
	// returns the inode: nothing in the store or the server reads it, and
	// an inode no Lookup returned has none.
	*perBlock
	// children maps names to inode numbers for directories.
	children map[string]msg.ObjectID
	// parent is the directory whose children map names this inode (the
	// root is its own). It is derived state: every mutator that moves a
	// name keeps it, and a snapshot load rebuilds it from the children
	// maps, so neither the snapshot nor the journal carries it.
	parent msg.ObjectID
}

// perBlock is an inode's map one BlockRef per block (Inode.Blocks).
type perBlock struct{ Blocks []msg.BlockRef }

// Parent returns the directory holding this inode's name: the directory
// whose lock covers a file's attributes.
func (in *Inode) Parent() msg.ObjectID { return in.parent }

// Empty reports whether a directory has no entries.
func (in *Inode) Empty() bool { return len(in.children) == 0 }

// Attr renders the inode's wire-visible metadata.
func (in *Inode) Attr() msg.Attr {
	return msg.Attr{
		Ino: in.Ino, IsDir: in.IsDir, Size: in.Size,
		Version: in.Version, Nlink: in.Nlink,
	}
}

// Store is the metadata database. It is not safe for concurrent use; the
// owning server serializes access.
type Store struct {
	inodes  map[msg.ObjectID]*Inode
	nextIno msg.ObjectID
	alloc   *Allocator
	// epochSeq is the durable client-epoch counter: epochs stay monotonic
	// across server restarts (the store lives on the server's private
	// highly-available storage, §6).
	epochSeq msg.Epoch
	// autoParents makes Create materialize missing ancestor directories.
	// Sharded authorities enable it: placement maps a file to a shard by
	// its full path, so a shard may be asked to create /a/b/c without
	// ever having been asked for /a — the directory skeleton is
	// replicated lazily per shard (DESIGN.md §14).
	autoParents bool
	// Cross-shard handoff ledgers (see export.go). Durable: they live in
	// the Store precisely so a crash mid-handoff can be resolved on
	// restart without double-owning or orphaning the file.
	exports   map[uint64]*Export
	exportSeq uint64
	migrating map[msg.ObjectID]uint64
	imports   map[importKey]msg.Errno
	// j, when non-nil, is the redo journal every mutator logs its call
	// to (OpenJournaled attaches it); seq numbers the last call logged
	// or replayed, and travels in the snapshot so replay knows where the
	// snapshot ends.
	j   *journal
	seq uint64
}

// NewStore creates a store containing only the root directory, allocating
// file blocks from alloc.
func NewStore(alloc *Allocator) *Store {
	s := &Store{
		inodes:    make(map[msg.ObjectID]*Inode),
		nextIno:   RootIno + 1,
		alloc:     alloc,
		exports:   make(map[uint64]*Export),
		migrating: make(map[msg.ObjectID]uint64),
		imports:   make(map[importKey]msg.Errno),
	}
	s.inodes[RootIno] = &Inode{
		Ino: RootIno, IsDir: true, Nlink: 2,
		children: make(map[string]msg.ObjectID),
		parent:   RootIno,
	}
	return s
}

// PathIter yields the components of an absolute slash-separated path one
// at a time — the one tokenizer every path walk uses, here and in the
// client's name cache, so that component i means the same thing to both.
// Empty components and "." are skipped, ".." is resolved lexically before
// the first component is handed out (the only case that builds a slice),
// and the names are substrings of the path.
type PathIter struct {
	rest  string
	parts []string // the components left, when ".." made them be resolved first
	split bool
}

// IterPath starts on path. It reports false for a path that is relative,
// empty, or climbs above the root.
func IterPath(path string) (PathIter, bool) {
	if !strings.HasPrefix(path, "/") {
		return PathIter{}, false
	}
	if !strings.Contains(path, "..") {
		return PathIter{rest: path}, true
	}
	parts := make([]string, 0, strings.Count(path, "/"))
	for it := (PathIter{rest: path}); ; {
		switch name := it.Next(); name {
		case "":
			return PathIter{parts: parts, split: true}, true
		case "..":
			if len(parts) == 0 {
				return PathIter{}, false
			}
			parts = parts[:len(parts)-1]
		default:
			parts = append(parts, name)
		}
	}
}

// Next returns the next component, or "" when there is none.
func (it *PathIter) Next() string {
	if it.split {
		if len(it.parts) == 0 {
			return ""
		}
		name := it.parts[0]
		it.parts = it.parts[1:]
		return name
	}
	for len(it.rest) > 0 {
		i := strings.IndexByte(it.rest, '/')
		if i < 0 {
			i = len(it.rest)
		}
		name := it.rest[:i]
		it.rest = it.rest[min(i+1, len(it.rest)):]
		if name != "" && name != "." {
			return name
		}
	}
	return ""
}

// Left counts the components not yet returned.
func (it PathIter) Left() int {
	n := 0
	for it.Next() != "" {
		n++
	}
	return n
}

// SplitPath normalizes an absolute slash-separated path into components.
// It returns ok=false for relative or empty paths.
func SplitPath(path string) (parts []string, ok bool) {
	it, ok := IterPath(path)
	if !ok {
		return nil, false
	}
	parts = make([]string, 0, strings.Count(path, "/"))
	for name := it.Next(); name != ""; name = it.Next() {
		parts = append(parts, name)
	}
	return parts, true
}

// Get returns the inode by number.
func (s *Store) Get(ino msg.ObjectID) (*Inode, msg.Errno) {
	in, ok := s.inodes[ino]
	if !ok {
		return nil, msg.ErrNoEnt
	}
	return in, msg.OK
}

// Lookup resolves an absolute path, and fills the inode's per-block
// Blocks from its Map. It is for callers outside the server, which
// resolves paths with Walk.
func (s *Store) Lookup(path string) (*Inode, msg.Errno) {
	it, ok := IterPath(path)
	if !ok {
		return nil, msg.ErrNoEnt
	}
	cur := s.inodes[RootIno]
	for name := it.Next(); name != ""; name = it.Next() {
		if !cur.IsDir {
			return nil, msg.ErrNotDir
		}
		next, ok := cur.children[name]
		if !ok {
			return nil, msg.ErrNoEnt
		}
		cur = s.inodes[next]
	}
	if cur.perBlock == nil {
		cur.perBlock = new(perBlock)
	}
	cur.Blocks = cur.Map.AppendRefs(nil)
	return cur, msg.OK
}

// Walk is a path resolved one component at a time, for callers that need
// to know which directories the answer depended on.
type Walk struct {
	// Node is the object the path names; nil unless Errno is OK.
	Node *Inode
	// Dirs[i] is the directory component i was looked up in (Dirs[0] is
	// the root): one entry per component reached. On ErrNoEnt the last
	// entry is the directory the name is missing from.
	Dirs []msg.ObjectID
	// Rest counts the components after the one the walk ended at: 0 when
	// it reached the last.
	Rest  int
	Errno msg.Errno
}

// Walk resolves an absolute path like Lookup and returns the chain of
// directories it went through.
func (s *Store) Walk(path string) Walk {
	it, ok := IterPath(path)
	if !ok {
		return Walk{Errno: msg.ErrNoEnt}
	}
	// One more than the path can have components: a caller that finds a
	// directory appends it.
	w := Walk{Dirs: make([]msg.ObjectID, 0, strings.Count(path, "/")+1)}
	cur := s.inodes[RootIno]
	for name := it.Next(); name != ""; name = it.Next() {
		if !cur.IsDir {
			w.Rest, w.Errno = it.Left()+1, msg.ErrNotDir
			return w
		}
		w.Dirs = append(w.Dirs, cur.Ino)
		next, ok := cur.children[name]
		if !ok {
			w.Rest, w.Errno = it.Left(), msg.ErrNoEnt
			return w
		}
		cur = s.inodes[next]
	}
	w.Node = cur
	return w
}

// lookupParent resolves all but the last component, returning the parent
// directory and the final name.
func (s *Store) lookupParent(path string) (*Inode, string, msg.Errno) {
	it, ok := IterPath(path)
	if !ok {
		return nil, "", msg.ErrNoEnt
	}
	name := it.Next()
	if name == "" {
		return nil, "", msg.ErrNoEnt
	}
	cur := s.inodes[RootIno]
	for after := it.Next(); after != ""; name, after = after, it.Next() {
		if !cur.IsDir {
			return nil, "", msg.ErrNotDir
		}
		next, ok := cur.children[name]
		if !ok {
			return nil, "", msg.ErrNoEnt
		}
		cur = s.inodes[next]
	}
	if !cur.IsDir {
		return nil, "", msg.ErrNotDir
	}
	return cur, name, msg.OK
}

// SetAutoParents toggles lazy materialization of ancestor directories
// on Create (see the autoParents field).
func (s *Store) SetAutoParents(on bool) {
	if s.j != nil {
		s.logOp(opSetAutoParents).flag(on).end()
	}
	s.autoParents = on
}

// AutoParents reports whether Create materializes missing ancestors.
func (s *Store) AutoParents() bool { return s.autoParents }

// ensureParents creates any missing ancestor directories of path.
func (s *Store) ensureParents(path string) {
	parts, ok := SplitPath(path)
	if !ok || len(parts) < 2 {
		return
	}
	cur := s.inodes[RootIno]
	for _, name := range parts[:len(parts)-1] {
		if !cur.IsDir {
			return
		}
		if next, ok := cur.children[name]; ok {
			cur = s.inodes[next]
			continue
		}
		in := &Inode{Ino: s.nextIno, IsDir: true, Nlink: 2,
			children: make(map[string]msg.ObjectID), parent: cur.Ino}
		s.nextIno++
		s.inodes[in.Ino] = in
		cur.children[name] = in.Ino
		cur.Nlink++
		cur.Version++
		cur = in
	}
}

// Create makes a new file or directory at path. The parent must exist,
// unless auto-parents is on (then missing ancestors are materialized).
//
// Like every mutator it logs the call before doing anything, whatever
// the outcome will be: a Create that fails with ErrExist has already
// materialized the ancestors, so replaying only the calls that succeeded
// would diverge.
func (s *Store) Create(path string, isDir bool) (*Inode, msg.Errno) {
	if s.j != nil {
		s.logOp(opCreate).str(path).flag(isDir).end()
	}
	if s.autoParents {
		s.ensureParents(path)
	}
	parent, name, errno := s.lookupParent(path)
	if errno != msg.OK {
		return nil, errno
	}
	if _, exists := parent.children[name]; exists {
		return nil, msg.ErrExist
	}
	in := &Inode{Ino: s.nextIno, IsDir: isDir, Nlink: 1, parent: parent.Ino}
	s.nextIno++
	if isDir {
		in.Nlink = 2
		in.children = make(map[string]msg.ObjectID)
		parent.Nlink++
	}
	s.inodes[in.Ino] = in
	parent.children[name] = in.Ino
	parent.Version++
	return in, msg.OK
}

// Unlink removes the object at path. Directories must be empty.
func (s *Store) Unlink(path string) msg.Errno {
	if s.j != nil {
		s.logOp(opUnlink).str(path).end()
	}
	parent, name, errno := s.lookupParent(path)
	if errno != msg.OK {
		return errno
	}
	ino, ok := parent.children[name]
	if !ok {
		return msg.ErrNoEnt
	}
	in := s.inodes[ino]
	if in.IsDir {
		if len(in.children) > 0 {
			return msg.ErrExist
		}
		parent.Nlink--
	}
	// Return the object's blocks to the allocator.
	s.alloc.Free(in.Map)
	delete(parent.children, name)
	delete(s.inodes, ino)
	parent.Version++
	return msg.OK
}

// Readdir lists a directory in sorted name order.
func (s *Store) Readdir(ino msg.ObjectID) ([]msg.DirEntry, msg.Errno) {
	in, errno := s.Get(ino)
	if errno != msg.OK {
		return nil, errno
	}
	if !in.IsDir {
		return nil, msg.ErrNotDir
	}
	names := make([]string, 0, len(in.children))
	for n := range in.children {
		names = append(names, n)
	}
	sort.Strings(names)
	entries := make([]msg.DirEntry, 0, len(names))
	for _, n := range names {
		child := s.inodes[in.children[n]]
		entries = append(entries, msg.DirEntry{Name: n, Ino: child.Ino, IsDir: child.IsDir})
	}
	return entries, msg.OK
}

// SetSize updates a file's size and bumps its version. Shrinking does not
// free blocks (Truncate does).
func (s *Store) SetSize(ino msg.ObjectID, size uint64) (*Inode, msg.Errno) {
	if s.j != nil {
		s.logOp(opSetSize).u64(uint64(ino)).u64(size).end()
	}
	in, errno := s.Get(ino)
	if errno != msg.OK {
		return nil, errno
	}
	if in.IsDir {
		return nil, msg.ErrIsDir
	}
	if in.Size != size {
		in.Size = size
		in.Version++
	}
	return in, msg.OK
}

// Touch bumps an object's version (any data modification observable
// through attribute polling, e.g. a server-mediated write).
func (s *Store) Touch(ino msg.ObjectID) msg.Errno {
	if s.j != nil {
		s.logOp(opTouch).u64(uint64(ino)).end()
	}
	in, errno := s.Get(ino)
	if errno != msg.OK {
		return errno
	}
	in.Version++
	return msg.OK
}

// AllocBlocks extends a file by exactly count blocks and returns the
// inode. This is the call the journal records: the count it logs is the
// count granted, so replay allocates the same run without knowing how a
// grant is sized.
func (s *Store) AllocBlocks(ino msg.ObjectID, count uint32) (*Inode, msg.Errno) {
	if s.j != nil {
		s.logOp(opAllocBlocks).u64(uint64(ino)).u32(count).end()
	}
	in, errno := s.Get(ino)
	if errno != msg.OK {
		return nil, errno
	}
	if in.IsDir {
		return nil, msg.ErrIsDir
	}
	runs, errno := s.alloc.Alloc(int(count))
	if errno != msg.OK {
		return nil, errno
	}
	in.Map = in.Map.Append(runs...)
	in.Version++
	return in, msg.OK
}

// MaxGrantAhead caps the run GrantBlocks allocates ahead of a writer:
// 256 KiB of 4 KiB blocks.
const MaxGrantAhead = 64

// GrantBlocks answers a writer that needs n more blocks with a run of
// max(n, min(blocks the file has, MaxGrantAhead)): the run doubles with
// the file up to the cap, so a file appended to one block at a time asks
// O(log) times and then once per cap. When the disks cannot hold the
// longer run the request is served with exactly n. first is the index of
// the first block added. The blocks granted ahead are the inode's like
// any others — that is what keeps data written into them reachable,
// whatever becomes of the writer — until a Truncate or Unlink frees them;
// the store never takes them back on its own.
func (s *Store) GrantBlocks(ino msg.ObjectID, n uint32) (in *Inode, first int, errno msg.Errno) {
	if cur, ok := s.inodes[ino]; ok {
		first = cur.Map.Len()
		if ahead := uint32(min(first, MaxGrantAhead)); ahead > n {
			if in, errno = s.AllocBlocks(ino, ahead); errno != msg.ErrNoSpace {
				return in, first, errno
			}
		}
	}
	in, errno = s.AllocBlocks(ino, n)
	return in, first, errno
}

// Truncate shrinks a file to nBlocks blocks, freeing the tail, and with
// it the size: nothing of the file lies past its last block.
func (s *Store) Truncate(ino msg.ObjectID, nBlocks int) (*Inode, msg.Errno) {
	if s.j != nil {
		s.logOp(opTruncate).u64(uint64(ino)).u64(uint64(int64(nBlocks))).end()
	}
	in, errno := s.Get(ino)
	if errno != msg.OK {
		return nil, errno
	}
	if in.IsDir {
		return nil, msg.ErrIsDir
	}
	if nBlocks < in.Map.Len() {
		s.alloc.Free(in.Map.Tail(nBlocks))
		in.Map = in.Map.Head(nBlocks)
		if end := uint64(nBlocks) * blockstore.BlockSize; in.Size > end {
			in.Size = end
		}
		in.Version++
	}
	return in, msg.OK
}

// Rename moves the object at oldPath to newPath (which must not exist;
// its parent must). Directories move with their subtrees.
func (s *Store) Rename(oldPath, newPath string) msg.Errno {
	if s.j != nil {
		s.logOp(opRename).str(oldPath).str(newPath).end()
	}
	oldParent, oldName, errno := s.lookupParent(oldPath)
	if errno != msg.OK {
		return errno
	}
	ino, ok := oldParent.children[oldName]
	if !ok {
		return msg.ErrNoEnt
	}
	newParent, newName, errno := s.lookupParent(newPath)
	if errno != msg.OK {
		return errno
	}
	if _, exists := newParent.children[newName]; exists {
		return msg.ErrExist
	}
	// Moving a directory under itself would orphan the subtree.
	moved := s.inodes[ino]
	if moved.IsDir {
		for p := newParent; p != nil && p.Ino != RootIno; p = s.inodes[p.parent] {
			if p.Ino == ino {
				return msg.ErrConflict
			}
		}
	}
	delete(oldParent.children, oldName)
	newParent.children[newName] = ino
	moved.parent = newParent.Ino
	if moved.IsDir && oldParent != newParent {
		oldParent.Nlink--
		newParent.Nlink++
	}
	oldParent.Version++
	newParent.Version++
	return msg.OK
}

// Allocator exposes the block allocator to tests and the cluster harness.
func (s *Store) Allocator() *Allocator { return s.alloc }

// Count returns the number of live inodes (including the root).
func (s *Store) Count() int { return len(s.inodes) }

// NextEpoch mints the next client-registration epoch, durably monotonic
// across server restarts.
func (s *Store) NextEpoch() msg.Epoch {
	if s.j != nil {
		s.logOp(opNextEpoch).end()
	}
	s.epochSeq++
	return s.epochSeq
}

// RaiseEpoch lifts the epoch counter to at least e, so that NextEpoch
// mints above it. It journals nothing: it is for a store that is neither
// journaled nor shared, whose counter started again at zero and which
// learns from the disks how high its authority's fences reach.
func (s *Store) RaiseEpoch(e msg.Epoch) { s.epochSeq = max(s.epochSeq, e) }
