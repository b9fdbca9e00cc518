package meta

import (
	"sort"

	"repro/internal/msg"
)

// Cross-shard handoff state (DESIGN.md §14). A rename whose destination
// lives on another lease authority migrates the file's metadata there:
// the source shard records a durable Export, transmits the object, and
// only unlinks its copy once the destination acknowledges the install.
// Both sides of the exchange live in the Store — the server's private
// highly-available storage — so the protocol survives either shard
// crashing mid-handoff: a restarted source re-drives its pending
// exports, and a restarted destination answers retransmissions from its
// durable import ledger instead of installing twice.

// Export is one in-flight outbound handoff.
type Export struct {
	// HID is the handoff identifier, unique per source shard and durably
	// monotonic: the (source, HID) pair names the handoff end to end.
	HID uint64
	// Dest is the lease authority receiving the object.
	Dest msg.NodeID
	// Ino is the local inode being migrated. While the export is
	// pending the server refuses all operations on it.
	Ino msg.ObjectID
	// OldPath is the object's name here; NewPath its name at Dest.
	OldPath, NewPath string
}

type importKey struct {
	Src msg.NodeID
	HID uint64
}

// BeginExport mints a durable handoff record for ino and marks it
// migrating. The caller transmits the object to dest and later settles
// the record with CompleteExport or AbortExport.
func (s *Store) BeginExport(ino msg.ObjectID, dest msg.NodeID, oldPath, newPath string) *Export {
	if s.j != nil {
		s.logOp(opBeginExport).u64(uint64(ino)).u32(uint32(dest)).str(oldPath).str(newPath).end()
	}
	s.exportSeq++
	e := &Export{HID: s.exportSeq, Dest: dest, Ino: ino, OldPath: oldPath, NewPath: newPath}
	s.exports[e.HID] = e
	s.migrating[ino] = e.HID
	return e
}

// Export returns the pending export with the given handoff ID, if any.
func (s *Store) Export(hid uint64) *Export { return s.exports[hid] }

// Migrating reports whether ino has a pending outbound handoff.
func (s *Store) Migrating(ino msg.ObjectID) bool {
	_, ok := s.migrating[ino]
	return ok
}

// ExportFor returns the pending export migrating ino, if any.
func (s *Store) ExportFor(ino msg.ObjectID) *Export {
	hid, ok := s.migrating[ino]
	if !ok {
		return nil
	}
	return s.exports[hid]
}

// CompleteExport settles a handoff the destination acknowledged:
// the local name and inode disappear. The name is found through the
// inode's parent link, not OldPath: a directory above the file may have
// been renamed meanwhile. The file's blocks are NOT freed — the
// destination now owns them at their original disk addresses, so they
// stay accounted in-use here forever, never reissued.
func (s *Store) CompleteExport(hid uint64) {
	if s.j != nil {
		s.logOp(opCompleteExport).u64(hid).end()
	}
	e, ok := s.exports[hid]
	if !ok {
		return
	}
	if in := s.inodes[e.Ino]; in != nil {
		parent := s.inodes[in.parent]
		for name, ino := range parent.children {
			if ino == e.Ino {
				delete(parent.children, name)
				parent.Version++
				break
			}
		}
	}
	delete(s.inodes, e.Ino)
	delete(s.migrating, e.Ino)
	delete(s.exports, hid)
}

// AbortExport settles a handoff the destination refused: the object
// stays here, unchanged, and stops being marked migrating.
func (s *Store) AbortExport(hid uint64) {
	if s.j != nil {
		s.logOp(opAbortExport).u64(hid).end()
	}
	e, ok := s.exports[hid]
	if !ok {
		return
	}
	delete(s.migrating, e.Ino)
	delete(s.exports, hid)
}

// PendingExports returns the unsettled handoffs in HID order, for a
// restarted server to re-drive.
func (s *Store) PendingExports() []*Export {
	out := make([]*Export, 0, len(s.exports))
	for _, e := range s.exports {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].HID < out[j].HID })
	return out
}

// Install materializes an object received from another shard: a fresh
// local inode at path carrying the migrated size, version, and block
// map, with the blocks adopted into the local allocator; the inode holds
// a canonical copy of runs. Missing parent directories are created —
// each shard holds only the slice of the namespace placed on it, so an
// imported path's ancestors may not exist here yet.
func (s *Store) Install(path string, attr msg.Attr, runs msg.Extents) (*Inode, msg.Errno) {
	if s.j != nil {
		j := s.logOp(opInstallRuns).str(path).flag(attr.IsDir).u64(attr.Size).u64(attr.Version)
		j.u32(uint32(len(runs)))
		for _, e := range runs {
			j.u32(uint32(e.Disk)).u64(e.Start).u32(e.Len)
		}
		j.end()
	}
	s.ensureParents(path)
	parent, name, errno := s.lookupParent(path)
	if errno != msg.OK {
		return nil, errno
	}
	if _, exists := parent.children[name]; exists {
		return nil, msg.ErrExist
	}
	in := &Inode{
		Ino: s.nextIno, IsDir: attr.IsDir, Size: attr.Size,
		Version: attr.Version, Nlink: 1, Map: msg.Extents(nil).Append(runs...), parent: parent.Ino,
	}
	s.nextIno++
	if in.IsDir {
		in.Nlink = 2
		in.children = make(map[string]msg.ObjectID)
		parent.Nlink++
	}
	s.alloc.Adopt(runs)
	s.inodes[in.Ino] = in
	parent.children[name] = in.Ino
	parent.Version++
	return in, msg.OK
}

// RecordImport writes the durable outcome of an inbound handoff, so a
// retransmitted ShardMigrate — or one replayed after this shard
// restarts — is answered from the ledger instead of installed twice.
func (s *Store) RecordImport(src msg.NodeID, hid uint64, errno msg.Errno) {
	if s.j != nil {
		s.logOp(opRecordImport).u32(uint32(src)).u64(hid).u8(byte(errno)).end()
	}
	s.imports[importKey{Src: src, HID: hid}] = errno
}

// ImportResult returns the recorded outcome of an inbound handoff.
func (s *Store) ImportResult(src msg.NodeID, hid uint64) (msg.Errno, bool) {
	errno, ok := s.imports[importKey{Src: src, HID: hid}]
	return errno, ok
}
