package meta

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/blockstore"
	"repro/internal/msg"
)

// The redo journal behind OpenJournaled. persist.go's header has the
// record layout and the replay and checkpoint rules; this file is their
// implementation.

// Record types: one per Store mutator. The values are the on-disk
// format; append, never renumber.
const (
	opCreate byte = iota + 1
	opUnlink
	opSetSize
	opTouch
	opAllocBlocks
	opTruncate
	opRename
	opNextEpoch
	opSetAutoParents
	opBeginExport
	opCompleteExport
	opAbortExport
	opInstall // a map one block per entry: replayed, no longer written
	opRecordImport
	opInstallRuns
)

const (
	logSuffix = ".log"

	// recHeader is len u32 | crc32c u32; the checksummed body that
	// follows starts with seq u64 | op u8.
	recHeader   = 8
	recBodyHead = 9
	blockRefLen = 12 // disk u32 | num u64
	extentLen   = 16 // disk u32 | start u64 | len u32

	// A checkpoint is due once the log holds more than
	// max(minCheckpointBytes, checkpointFactor × the last snapshot):
	// it costs O(namespace) and is paid once per O(namespace) bytes of
	// log, so a mutation's amortized share of it is constant.
	minCheckpointBytes = 1 << 20
	checkpointFactor   = 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrSuperseded is returned by a checkpoint whose log file is no longer
// the one at the journal's path: another process has recovered the
// store since, and this one's writes now land in an unlinked file.
var ErrSuperseded = errors.New("meta: journal superseded by a later recovery")

// journal is the append side of the log. Mutators frame their records
// into pending; Commit hands pending to the kernel.
type journal struct {
	snapPath string
	syncer   *blockstore.Syncer // fsyncs and installs the snapshot and the log
	f        *os.File           // the log, written at its end
	size     int64              // bytes written to f
	limit    int64              // checkpoint once size exceeds this
	pending  []byte
	start    int   // offset in pending of the record being built
	err      error // a failed append: the log's tail is unknown, so every later Commit fails too
}

func logPath(snapPath string) string { return snapPath + logSuffix }

// logOp opens the record of one mutator call. The caller appends the
// call's arguments and closes the record with end.
func (s *Store) logOp(op byte) *journal {
	s.seq++
	j := s.j
	j.start = len(j.pending)
	j.pending = append(j.pending, make([]byte, recHeader)...)
	return j.u64(s.seq).u8(op)
}

func (j *journal) u8(v byte) *journal {
	j.pending = append(j.pending, v)
	return j
}

func (j *journal) u32(v uint32) *journal {
	j.pending = binary.LittleEndian.AppendUint32(j.pending, v)
	return j
}

func (j *journal) u64(v uint64) *journal {
	j.pending = binary.LittleEndian.AppendUint64(j.pending, v)
	return j
}

func (j *journal) flag(v bool) *journal {
	if v {
		return j.u8(1)
	}
	return j.u8(0)
}

func (j *journal) str(v string) *journal {
	j.u32(uint32(len(v)))
	j.pending = append(j.pending, v...)
	return j
}

func (j *journal) end() {
	rec := j.pending[j.start:]
	binary.LittleEndian.PutUint32(rec[0:], uint32(len(rec)-recHeader))
	binary.LittleEndian.PutUint32(rec[4:], crc32.Checksum(rec[recHeader:], castagnoli))
}

// decoder reads a record's arguments; a short or over-long record sets
// bad rather than panicking.
type decoder struct {
	b   []byte
	bad bool
}

func (d *decoder) take(n int) []byte {
	if d.bad || n < 0 || n > len(d.b) {
		d.bad = true
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *decoder) u8() byte {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *decoder) u32() uint32 {
	if b := d.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *decoder) u64() uint64 {
	if b := d.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *decoder) flag() bool  { return d.u8() != 0 }
func (d *decoder) str() string { return string(d.take(int(d.u32()))) }

// extents reads a block map: count-prefixed runs, or with perBlock the
// count-prefixed blocks an opInstall record holds, made into runs.
func (d *decoder) extents(perBlock bool) msg.Extents {
	size := extentLen
	if perBlock {
		size = blockRefLen
	}
	n := int(d.u32())
	if n > len(d.b)/size {
		d.bad = true
		return nil
	}
	runs := make(msg.Extents, 0, n)
	for range n {
		e := msg.Extent{Disk: msg.NodeID(int32(d.u32())), Start: d.u64(), Len: 1}
		if !perBlock {
			e.Len = d.u32()
		}
		if e.Len == 0 || e.End() < e.Start {
			d.bad = true
		}
		runs = runs.Append(e)
	}
	return runs
}

// apply re-invokes the mutator a record names. The arguments are decoded
// in full first: a record that passed its CRC but does not parse is
// corruption (or a newer format), never a torn tail.
func (s *Store) apply(op byte, args []byte) error {
	d := &decoder{b: args}
	var call func()
	switch op {
	case opCreate:
		path, isDir := d.str(), d.flag()
		call = func() { s.Create(path, isDir) }
	case opUnlink:
		path := d.str()
		call = func() { s.Unlink(path) }
	case opSetSize:
		ino, size := msg.ObjectID(d.u64()), d.u64()
		call = func() { s.SetSize(ino, size) }
	case opTouch:
		ino := msg.ObjectID(d.u64())
		call = func() { s.Touch(ino) }
	case opAllocBlocks:
		ino, count := msg.ObjectID(d.u64()), d.u32()
		call = func() { s.AllocBlocks(ino, count) }
	case opTruncate:
		ino, nBlocks := msg.ObjectID(d.u64()), int(int64(d.u64()))
		call = func() { s.Truncate(ino, nBlocks) }
	case opRename:
		oldPath, newPath := d.str(), d.str()
		call = func() { s.Rename(oldPath, newPath) }
	case opNextEpoch:
		call = func() { s.NextEpoch() }
	case opSetAutoParents:
		on := d.flag()
		call = func() { s.SetAutoParents(on) }
	case opBeginExport:
		ino, dest := msg.ObjectID(d.u64()), msg.NodeID(int32(d.u32()))
		oldPath, newPath := d.str(), d.str()
		call = func() { s.BeginExport(ino, dest, oldPath, newPath) }
	case opCompleteExport:
		hid := d.u64()
		call = func() { s.CompleteExport(hid) }
	case opAbortExport:
		hid := d.u64()
		call = func() { s.AbortExport(hid) }
	case opInstall, opInstallRuns:
		path := d.str()
		attr := msg.Attr{IsDir: d.flag(), Size: d.u64(), Version: d.u64()}
		runs := d.extents(op == opInstall)
		call = func() { s.Install(path, attr, runs) }
	case opRecordImport:
		src, hid, errno := msg.NodeID(int32(d.u32())), d.u64(), msg.Errno(d.u8())
		call = func() { s.RecordImport(src, hid, errno) }
	default:
		return fmt.Errorf("unknown record type %d", op)
	}
	if d.bad || len(d.b) != 0 {
		return fmt.Errorf("malformed arguments for record type %d", op)
	}
	call()
	return nil
}

// replay applies every record of log whose seq is above the store's,
// and stops at the first whose length or checksum fails: the torn tail
// of an append that never completed, so of a mutation nobody was told
// about. Records at or below the store's seq are already in the
// snapshot it was loaded from (a crash between a checkpoint's snapshot
// and its log reset leaves them behind) and are skipped. Behind a
// snapshot in the old allocator layout an AllocBlocks record is an error.
func (s *Store) replay(log []byte, oldLayout bool) error {
	for len(log) >= recHeader {
		n := int64(binary.LittleEndian.Uint32(log))
		if n < recBodyHead || n > int64(len(log)-recHeader) {
			break
		}
		body := log[recHeader : recHeader+n]
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(log[4:]) {
			break
		}
		switch seq := binary.LittleEndian.Uint64(body); {
		case seq <= s.seq:
		case seq == s.seq+1:
			if oldLayout && body[8] == opAllocBlocks {
				return fmt.Errorf("meta: journal record %d allocates blocks behind a snapshot in the old "+
					"allocator layout, which this build cannot place where that build did: "+
					"recover once with the build that wrote it, then start this one", seq)
			}
			if err := s.apply(body[8], body[recBodyHead:]); err != nil {
				return fmt.Errorf("meta: journal record %d: %w", seq, err)
			}
			s.seq = seq
		default:
			return fmt.Errorf("meta: journal jumps from record %d to %d", s.seq, seq)
		}
		log = log[recHeader+n:]
	}
	return nil
}

// OpenJournaled recovers the store persisted at path — the snapshot
// there, or an empty store over disks if there is none, plus every
// intact record of path+".log" the snapshot does not cover — attaches
// the journal, and checkpoints. The checkpoint bounds the next replay,
// drops any torn tail with the old log, and unlinks the file a deposed
// writer may still hold open. From here on every mutator logs its call
// and Commit makes the calls so far survive this process. Every fsync
// the journal pays goes through syncer.
//
// A log behind a snapshot in the old allocator layout (persist.go) is
// refused if it holds an AllocBlocks record: the blocks that call was
// granted cannot be placed again.
func OpenJournaled(path string, disks map[msg.NodeID]uint64, syncer *blockstore.Syncer) (*Store, error) {
	s, oldLayout, err := loadSnapshot(path)
	if err != nil {
		return nil, err
	}
	if s == nil {
		s = NewStore(NewAllocator(disks))
	}
	log, err := os.ReadFile(logPath(path))
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("meta: journal: %w", err)
	}
	if err := s.replay(log, oldLayout); err != nil {
		return nil, err
	}
	s.j = &journal{snapPath: path, syncer: syncer}
	if err := s.checkpoint(); err != nil {
		s.j = nil
		return nil, err
	}
	return s, nil
}

// Commit hands every record logged since the last Commit to the kernel
// in one write, and checkpoints if the log has outgrown its limit. It
// is a no-op on a store without a journal or with nothing logged, so a
// caller can commit before every message it sends. When Commit has
// returned, the mutations before it survive the death of this process;
// surviving power loss is only promised as of the last checkpoint.
func (s *Store) Commit() error {
	j := s.j
	if j == nil || len(j.pending) == 0 {
		return nil
	}
	if j.err != nil {
		return j.err
	}
	n, err := j.f.Write(j.pending)
	j.size += int64(n)
	if err != nil {
		// The log may now end in part of a record; replay would stop
		// there and drop whatever a retry appended behind it.
		j.err = fmt.Errorf("meta: journal append: %w", err)
		return j.err
	}
	j.pending = j.pending[:0]
	if j.size > j.limit {
		return s.checkpoint()
	}
	return nil
}

// checkpoint makes the snapshot current and starts an empty log: the
// snapshot (which carries seq) is durable before the log is replaced,
// so a crash between the two leaves records replay skips.
func (s *Store) checkpoint() error {
	j := s.j
	path := logPath(j.snapPath)
	if j.f != nil {
		// Check that the log is still ours: past this point the
		// snapshot another process may be serving from is overwritten.
		mine, err := j.f.Stat()
		if err != nil {
			return fmt.Errorf("meta: checkpoint: %w", err)
		}
		if cur, err := os.Stat(path); err != nil || !os.SameFile(mine, cur) {
			return ErrSuperseded
		}
	}
	snapSize, err := s.saveSnapshot(j.snapPath, j.syncer)
	if err != nil {
		return err
	}
	f, err := j.syncer.Install(path, nil)
	if err != nil {
		return fmt.Errorf("meta: %w", err)
	}
	if j.f != nil {
		// Everything in the old log is in the snapshot now.
		_ = j.f.Close()
	}
	j.f, j.size = f, 0
	j.limit = max(minCheckpointBytes, checkpointFactor*int64(snapSize))
	return nil
}

// CloseJournal detaches the journal: later mutations are no longer
// logged. Records not yet committed are dropped — no message that
// depended on them was sent.
func (s *Store) CloseJournal() error {
	j := s.j
	if j == nil {
		return nil
	}
	s.j = nil
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("meta: journal close: %w", err)
	}
	return nil
}
