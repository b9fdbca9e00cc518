package msg

// The hand-rolled binary wire layout (DESIGN.md §12). Every frame body is
//
//	from int32 | to int32 | type uint8 | payload
//
// with all integers big-endian and every payload a fixed-layout field
// sequence: fixed-width scalars in declaration order, strings and byte
// slices length-prefixed with uint32, struct vectors count-prefixed with
// uint32. The one irregularity is deliberate: the bulk Data field of the
// four page-carrying types (DiskWrite, DiskWriteV, DiskReadRes,
// DiskReadVRes) and of the two function-ship types (FuncWrite,
// FuncReadRes) is encoded LAST, so the sender can transmit it as a
// scatter-gather tail directly from the caller's page buffer — its length
// prefix sits in the metadata section, the bytes themselves never get
// copied into the frame.
//
// On decode the four SAN page types alias the receive buffer (zero-copy;
// the transport's borrow/release protocol governs the buffer's lifetime),
// while FuncWrite.Data and FuncReadRes.Data are copied out — their
// consumers hand the data to retry loops and user callbacks that outlive
// the handler, so an alias would dangle.
//
// BinarySize, EncodeBinary, and DecodeBinary must agree exactly; the msg
// test suite round-trips every type in AllMessages/AllResults through
// them and cross-checks against gob, so a type added to the registry
// without a layout here fails tests, not connections.

import (
	"encoding/binary"
	"errors"
	"time"
)

// Binary wire type identifiers. The list is append-only: reusing or
// renumbering an identifier breaks mixed-version interoperability.
const (
	btInvalid uint8 = iota
	btRejoin
	btKeepAlive
	btLookup
	btCreate
	btUnlink
	btRename
	btTruncate
	btOpen
	btClose
	btGetAttr
	btSetAttr
	btReaddir
	btGetBlocks
	btAllocBlocks
	btLockAcquire
	btLockRelease
	btLockDowngraded
	btReassert
	btHeartbeat
	btRenewObjects
	btFuncRead
	btFuncWrite
	btReply
	btDemand
	btDemandAck
	btDiskRead
	btDiskReadRes
	btDiskWrite
	btDiskWriteRes
	btDiskWriteV
	btDiskWriteVRes
	btDiskReadV
	btDiskReadVRes
	btFenceSet
	btFenceRes
	btDLockAcquire
	btDLockRelease
	btDLockRes
	btShardMigrate
	btShardMigrateRes
	btReplicaPrepare
	btReplicaPromise
	btReplicaPropose
	btReplicaAccept
	btReplicaInfo
)

// Nested result identifiers for Reply bodies. brNil means Body == nil.
const (
	brNil uint8 = iota
	brLookupRes
	brCreateRes
	brOpenRes
	brAttrRes
	brReaddirRes
	brBlocksRes
	brAllocRes
	brLockRes
	brRejoinRes
	brReassertRes
	brFuncReadRes
	brReplicaInfoRes
)

var (
	// ErrNoBinaryLayout reports a payload (or Reply body) type the binary
	// codec has no layout for. Seeing it means a type was added to the
	// registry without extending this file.
	ErrNoBinaryLayout = errors.New("msg: no binary layout for payload type")
	// ErrCorruptFrame reports a frame body that does not parse: truncated
	// fields, counts larger than the remaining bytes, trailing garbage, or
	// an unknown type identifier.
	ErrCorruptFrame = errors.New("msg: corrupt frame")
)

const (
	binHeaderLen = 9  // from i32 | to i32 | type u8
	binReqHdrLen = 16 // client i32 | req u64 | epoch u32
	binAttrLen   = 29 // ino u64 | isdir u8 | size u64 | version u64 | nlink u32
)

// BinarySize returns the metadata length of env's frame body and the
// zero-copy data tail. The full body is the metadata section followed
// immediately by the tail; EncodeBinary writes exactly meta bytes and the
// caller transmits (or appends) the tail itself.
//
//tank:hotpath
func BinarySize(env *Envelope) (meta int, tail []byte, err error) {
	switch m := env.Payload.(type) {
	case *Rejoin, *KeepAlive, *Heartbeat:
		meta = binReqHdrLen
	case *Lookup:
		meta = binReqHdrLen + 4 + len(m.Path)
	case *Create:
		meta = binReqHdrLen + 4 + len(m.Path) + 1
	case *Unlink:
		meta = binReqHdrLen + 4 + len(m.Path)
	case *Rename:
		meta = binReqHdrLen + 8 + len(m.OldPath) + len(m.NewPath)
	case *Truncate:
		meta = binReqHdrLen + 12
	case *Open:
		meta = binReqHdrLen + 9
	case *Close:
		meta = binReqHdrLen + 16
	case *GetAttr:
		meta = binReqHdrLen + 8
	case *SetAttr:
		meta = binReqHdrLen + 16
	case *Readdir:
		meta = binReqHdrLen + 8
	case *GetBlocks:
		meta = binReqHdrLen + 8
	case *AllocBlocks:
		meta = binReqHdrLen + 12
	case *LockAcquire:
		meta = binReqHdrLen + 9
	case *LockRelease:
		meta = binReqHdrLen + 9
	case *LockDowngraded:
		meta = binReqHdrLen + 17
	case *Reassert:
		meta = binReqHdrLen + 4 + 9*len(m.Locks)
	case *RenewObjects:
		meta = binReqHdrLen + 4 + 8*len(m.Inos)
	case *FuncRead:
		meta = binReqHdrLen + 20
	case *FuncWrite:
		meta = binReqHdrLen + 20
		tail = m.Data
	case *Reply:
		rm, rt, rerr := binaryResultSize(m.Body)
		if rerr != nil {
			return 0, nil, rerr
		}
		meta = 14 + rm
		tail = rt
	case *Demand:
		meta = 21
	case *DemandAck:
		meta = 12
	case *DiskRead:
		meta = 20
	case *DiskReadRes:
		meta = 21
		tail = m.Data
	case *DiskWrite:
		meta = 32
		tail = m.Data
	case *DiskWriteRes:
		meta = 9
	case *DiskWriteV:
		meta = 20 + 16*len(m.Blocks)
		tail = m.Data
	case *DiskWriteVRes:
		meta = 13 + len(m.Errs)
	case *DiskReadV:
		meta = 16 + 8*len(m.Blocks)
	case *DiskReadVRes:
		meta = 21 + len(m.Errs) + 8*len(m.Vers)
		tail = m.Data
	case *FenceSet:
		meta = 17
	case *FenceRes:
		meta = 9
	case *DLockAcquire:
		meta = 32
	case *DLockRelease:
		meta = 24
	case *DLockRes:
		meta = 9
	case *ShardMigrate:
		meta = 49 + len(m.Path) + 12*len(m.Blocks)
	case *ShardMigrateRes:
		meta = 9
	case *ReplicaPrepare:
		meta = 12
	case *ReplicaPromise:
		meta = 26
	case *ReplicaPropose:
		meta = 16
	case *ReplicaAccept:
		meta = 13
	case *ReplicaInfo:
		meta = binReqHdrLen
	default:
		return 0, nil, ErrNoBinaryLayout
	}
	return binHeaderLen + meta, tail, nil
}

// binaryResultSize sizes a Reply body: result-type byte + fields.
//
//tank:hotpath
func binaryResultSize(res Result) (meta int, tail []byte, err error) {
	switch r := res.(type) {
	case nil:
		return 1, nil, nil
	case LookupRes, CreateRes, AttrRes:
		return 1 + binAttrLen, nil, nil
	case OpenRes:
		return 1 + 8 + binAttrLen, nil, nil
	case ReaddirRes:
		n := 1 + 4
		for i := range r.Entries {
			n += 4 + len(r.Entries[i].Name) + 9
		}
		return n, nil, nil
	case BlocksRes:
		return 1 + binAttrLen + 4 + 12*len(r.Blocks), nil, nil
	case AllocRes:
		return 1 + binAttrLen + 4 + 4 + 12*len(r.Blocks), nil, nil
	case LockRes:
		return 2, nil, nil
	case RejoinRes, ReassertRes:
		return 5, nil, nil
	case FuncReadRes:
		return 1 + 4, r.Data, nil
	case ReplicaInfoRes:
		return 1 + 13, nil, nil
	default:
		return 0, nil, ErrNoBinaryLayout
	}
}

// wr is the offset-tracking frame writer. Its methods assume the caller
// sized the destination with BinarySize; an undersized buffer panics,
// which the round-trip tests would catch as a layout/size disagreement.
type wr struct {
	b   []byte
	off int
}

//tank:hotpath
func (w *wr) u8(v uint8) { w.b[w.off] = v; w.off++ }

//tank:hotpath
func (w *wr) b1(v bool) {
	var x uint8
	if v {
		x = 1
	}
	w.u8(x)
}

//tank:hotpath
func (w *wr) u32(v uint32) {
	binary.BigEndian.PutUint32(w.b[w.off:], v)
	w.off += 4
}

//tank:hotpath
func (w *wr) u64(v uint64) {
	binary.BigEndian.PutUint64(w.b[w.off:], v)
	w.off += 8
}

//tank:hotpath
func (w *wr) i32(v int32) { w.u32(uint32(v)) }

//tank:hotpath
func (w *wr) i64(v int64) { w.u64(uint64(v)) }

//tank:hotpath
func (w *wr) str(s string) {
	w.u32(uint32(len(s)))
	copy(w.b[w.off:], s)
	w.off += len(s)
}

//tank:hotpath
func (w *wr) hdr(h *ReqHeader) {
	w.i32(int32(h.Client))
	w.u64(uint64(h.Req))
	w.u32(uint32(h.Epoch))
}

//tank:hotpath
func (w *wr) attr(a *Attr) {
	w.u64(uint64(a.Ino))
	w.b1(a.IsDir)
	w.u64(a.Size)
	w.u64(a.Version)
	w.u32(a.Nlink)
}

// EncodeBinary writes env's metadata section — everything except the
// zero-copy tail reported by BinarySize — into dst, which must be exactly
// meta bytes long. Steady-state encoding performs no allocation: page
// data stays in the caller's buffers and travels as the frame tail.
//
//tank:hotpath
func EncodeBinary(dst []byte, env *Envelope) error {
	w := wr{b: dst}
	w.i32(int32(env.From))
	w.i32(int32(env.To))
	switch m := env.Payload.(type) {
	case *Rejoin:
		w.u8(btRejoin)
		w.hdr(&m.ReqHeader)
	case *KeepAlive:
		w.u8(btKeepAlive)
		w.hdr(&m.ReqHeader)
	case *Heartbeat:
		w.u8(btHeartbeat)
		w.hdr(&m.ReqHeader)
	case *Lookup:
		w.u8(btLookup)
		w.hdr(&m.ReqHeader)
		w.str(m.Path)
	case *Create:
		w.u8(btCreate)
		w.hdr(&m.ReqHeader)
		w.str(m.Path)
		w.b1(m.IsDir)
	case *Unlink:
		w.u8(btUnlink)
		w.hdr(&m.ReqHeader)
		w.str(m.Path)
	case *Rename:
		w.u8(btRename)
		w.hdr(&m.ReqHeader)
		w.str(m.OldPath)
		w.str(m.NewPath)
	case *Truncate:
		w.u8(btTruncate)
		w.hdr(&m.ReqHeader)
		w.u64(uint64(m.Ino))
		w.u32(m.Blocks)
	case *Open:
		w.u8(btOpen)
		w.hdr(&m.ReqHeader)
		w.u64(uint64(m.Ino))
		w.b1(m.Write)
	case *Close:
		w.u8(btClose)
		w.hdr(&m.ReqHeader)
		w.u64(uint64(m.Ino))
		w.u64(uint64(m.Handle))
	case *GetAttr:
		w.u8(btGetAttr)
		w.hdr(&m.ReqHeader)
		w.u64(uint64(m.Ino))
	case *SetAttr:
		w.u8(btSetAttr)
		w.hdr(&m.ReqHeader)
		w.u64(uint64(m.Ino))
		w.u64(m.NewSize)
	case *Readdir:
		w.u8(btReaddir)
		w.hdr(&m.ReqHeader)
		w.u64(uint64(m.Ino))
	case *GetBlocks:
		w.u8(btGetBlocks)
		w.hdr(&m.ReqHeader)
		w.u64(uint64(m.Ino))
	case *AllocBlocks:
		w.u8(btAllocBlocks)
		w.hdr(&m.ReqHeader)
		w.u64(uint64(m.Ino))
		w.u32(m.Count)
	case *LockAcquire:
		w.u8(btLockAcquire)
		w.hdr(&m.ReqHeader)
		w.u64(uint64(m.Ino))
		w.u8(uint8(m.Mode))
	case *LockRelease:
		w.u8(btLockRelease)
		w.hdr(&m.ReqHeader)
		w.u64(uint64(m.Ino))
		w.u8(uint8(m.To))
	case *LockDowngraded:
		w.u8(btLockDowngraded)
		w.hdr(&m.ReqHeader)
		w.u64(uint64(m.Ino))
		w.u8(uint8(m.To))
		w.u64(uint64(m.Demand))
	case *Reassert:
		w.u8(btReassert)
		w.hdr(&m.ReqHeader)
		w.u32(uint32(len(m.Locks)))
		for i := range m.Locks {
			w.u64(uint64(m.Locks[i].Ino))
			w.u8(uint8(m.Locks[i].Mode))
		}
	case *RenewObjects:
		w.u8(btRenewObjects)
		w.hdr(&m.ReqHeader)
		w.u32(uint32(len(m.Inos)))
		for _, ino := range m.Inos {
			w.u64(uint64(ino))
		}
	case *FuncRead:
		w.u8(btFuncRead)
		w.hdr(&m.ReqHeader)
		w.u64(uint64(m.Ino))
		w.u64(m.Offset)
		w.u32(m.Length)
	case *FuncWrite:
		w.u8(btFuncWrite)
		w.hdr(&m.ReqHeader)
		w.u64(uint64(m.Ino))
		w.u64(m.Offset)
		w.u32(uint32(len(m.Data))) // tail
	case *Reply:
		w.u8(btReply)
		w.i32(int32(m.Client))
		w.u64(uint64(m.Req))
		w.u8(uint8(m.Status))
		w.u8(uint8(m.Err))
		if err := encodeResult(&w, m.Body); err != nil {
			return err
		}
	case *Demand:
		w.u8(btDemand)
		w.u64(uint64(m.ID))
		w.u64(uint64(m.Ino))
		w.u8(uint8(m.Mode))
		w.i32(int32(m.Server))
	case *DemandAck:
		w.u8(btDemandAck)
		w.i32(int32(m.Client))
		w.u64(uint64(m.ID))
	case *DiskRead:
		w.u8(btDiskRead)
		w.i32(int32(m.Client))
		w.u64(uint64(m.Req))
		w.u64(m.Block)
	case *DiskReadRes:
		w.u8(btDiskReadRes)
		w.u64(uint64(m.Req))
		w.u8(uint8(m.Err))
		w.u64(m.Ver)
		w.u32(uint32(len(m.Data))) // tail
	case *DiskWrite:
		w.u8(btDiskWrite)
		w.i32(int32(m.Client))
		w.u64(uint64(m.Req))
		w.u64(m.Block)
		w.u64(m.Ver)
		w.u32(uint32(len(m.Data))) // tail
	case *DiskWriteRes:
		w.u8(btDiskWriteRes)
		w.u64(uint64(m.Req))
		w.u8(uint8(m.Err))
	case *DiskWriteV:
		w.u8(btDiskWriteV)
		w.i32(int32(m.Client))
		w.u64(uint64(m.Req))
		w.u32(uint32(len(m.Blocks)))
		for i := range m.Blocks {
			w.u64(m.Blocks[i].Block)
			w.u64(m.Blocks[i].Ver)
		}
		w.u32(uint32(len(m.Data))) // tail
	case *DiskWriteVRes:
		w.u8(btDiskWriteVRes)
		w.u64(uint64(m.Req))
		w.u8(uint8(m.Err))
		w.u32(uint32(len(m.Errs)))
		for _, e := range m.Errs {
			w.u8(uint8(e))
		}
	case *DiskReadV:
		w.u8(btDiskReadV)
		w.i32(int32(m.Client))
		w.u64(uint64(m.Req))
		w.u32(uint32(len(m.Blocks)))
		for _, b := range m.Blocks {
			w.u64(b)
		}
	case *DiskReadVRes:
		w.u8(btDiskReadVRes)
		w.u64(uint64(m.Req))
		w.u8(uint8(m.Err))
		w.u32(uint32(len(m.Errs)))
		for _, e := range m.Errs {
			w.u8(uint8(e))
		}
		w.u32(uint32(len(m.Vers)))
		for _, v := range m.Vers {
			w.u64(v)
		}
		w.u32(uint32(len(m.Data))) // tail
	case *FenceSet:
		w.u8(btFenceSet)
		w.i32(int32(m.Admin))
		w.u64(uint64(m.Req))
		w.i32(int32(m.Target))
		w.b1(m.On)
	case *FenceRes:
		w.u8(btFenceRes)
		w.u64(uint64(m.Req))
		w.u8(uint8(m.Err))
	case *DLockAcquire:
		w.u8(btDLockAcquire)
		w.i32(int32(m.Client))
		w.u64(uint64(m.Req))
		w.u64(m.Start)
		w.u32(m.Count)
		w.i64(int64(m.TTL))
	case *DLockRelease:
		w.u8(btDLockRelease)
		w.i32(int32(m.Client))
		w.u64(uint64(m.Req))
		w.u64(m.Start)
		w.u32(m.Count)
	case *DLockRes:
		w.u8(btDLockRes)
		w.u64(uint64(m.Req))
		w.u8(uint8(m.Err))
	case *ShardMigrate:
		w.u8(btShardMigrate)
		w.i32(int32(m.Src))
		w.u64(m.HID)
		w.str(m.Path)
		w.attr(&m.Attr)
		w.u32(uint32(len(m.Blocks)))
		for i := range m.Blocks {
			w.i32(int32(m.Blocks[i].Disk))
			w.u64(m.Blocks[i].Num)
		}
	case *ShardMigrateRes:
		w.u8(btShardMigrateRes)
		w.u64(m.HID)
		w.u8(uint8(m.Err))
	case *ReplicaPrepare:
		w.u8(btReplicaPrepare)
		w.i32(int32(m.From))
		w.u64(m.Ballot)
	case *ReplicaPromise:
		w.u8(btReplicaPromise)
		w.i32(int32(m.From))
		w.u64(m.Ballot)
		w.b1(m.OK)
		w.b1(m.Accepted)
		w.u64(m.AcceptedBallot)
		w.i32(int32(m.AcceptedHolder))
	case *ReplicaPropose:
		w.u8(btReplicaPropose)
		w.i32(int32(m.From))
		w.u64(m.Ballot)
		w.i32(int32(m.Holder))
	case *ReplicaAccept:
		w.u8(btReplicaAccept)
		w.i32(int32(m.From))
		w.u64(m.Ballot)
		w.b1(m.OK)
	case *ReplicaInfo:
		w.u8(btReplicaInfo)
		w.hdr(&m.ReqHeader)
	default:
		return ErrNoBinaryLayout
	}
	if w.off != len(dst) {
		return ErrNoBinaryLayout
	}
	return nil
}

// encodeResult writes a Reply body: result-type byte + fields. The
// FuncReadRes data rides as the frame tail, like the SAN page payloads.
//
//tank:hotpath
func encodeResult(w *wr, res Result) error {
	switch r := res.(type) {
	case nil:
		w.u8(brNil)
	case LookupRes:
		w.u8(brLookupRes)
		w.attr(&r.Attr)
	case CreateRes:
		w.u8(brCreateRes)
		w.attr(&r.Attr)
	case OpenRes:
		w.u8(brOpenRes)
		w.u64(uint64(r.Handle))
		w.attr(&r.Attr)
	case AttrRes:
		w.u8(brAttrRes)
		w.attr(&r.Attr)
	case ReaddirRes:
		w.u8(brReaddirRes)
		w.u32(uint32(len(r.Entries)))
		for i := range r.Entries {
			e := &r.Entries[i]
			w.str(e.Name)
			w.u64(uint64(e.Ino))
			w.b1(e.IsDir)
		}
	case BlocksRes:
		w.u8(brBlocksRes)
		w.attr(&r.Attr)
		w.u32(uint32(len(r.Blocks)))
		for i := range r.Blocks {
			w.i32(int32(r.Blocks[i].Disk))
			w.u64(r.Blocks[i].Num)
		}
	case AllocRes:
		w.u8(brAllocRes)
		w.attr(&r.Attr)
		w.u32(r.First)
		w.u32(uint32(len(r.Blocks)))
		for i := range r.Blocks {
			w.i32(int32(r.Blocks[i].Disk))
			w.u64(r.Blocks[i].Num)
		}
	case LockRes:
		w.u8(brLockRes)
		w.u8(uint8(r.Mode))
	case RejoinRes:
		w.u8(brRejoinRes)
		w.u32(uint32(r.Epoch))
	case ReassertRes:
		w.u8(brReassertRes)
		w.u32(uint32(r.Epoch))
	case FuncReadRes:
		w.u8(brFuncReadRes)
		w.u32(uint32(len(r.Data))) // tail
	case ReplicaInfoRes:
		w.u8(brReplicaInfoRes)
		w.u8(r.Role)
		w.u64(r.Ballot)
		w.i32(int32(r.Active))
	default:
		return ErrNoBinaryLayout
	}
	return nil
}

// rd is the bounds-checked frame reader. Any out-of-range read sets bad
// and yields zero values; the decoder checks bad once at the end, so a
// corrupt frame can never panic, only fail.
type rd struct {
	b   []byte
	off int
	bad bool
}

//tank:hotpath
func (r *rd) remaining() int { return len(r.b) - r.off }

//tank:hotpath
func (r *rd) u8() uint8 {
	if r.remaining() < 1 {
		r.bad = true
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

//tank:hotpath
func (r *rd) b1() bool { return r.u8() != 0 }

//tank:hotpath
func (r *rd) u32() uint32 {
	if r.remaining() < 4 {
		r.bad = true
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

//tank:hotpath
func (r *rd) u64() uint64 {
	if r.remaining() < 8 {
		r.bad = true
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

//tank:hotpath
func (r *rd) i32() int32 { return int32(r.u32()) }

//tank:hotpath
func (r *rd) i64() int64 { return int64(r.u64()) }

// count reads a u32 element count and validates it against the bytes
// actually remaining (elem = minimum encoded size per element), so a
// corrupt count can never drive an oversized allocation.
//
//tank:hotpath
func (r *rd) count(elem int) int {
	n := int(r.u32())
	if n < 0 || n*elem > r.remaining() {
		r.bad = true
		return 0
	}
	return n
}

// take aliases the next n bytes of the frame without copying.
//
//tank:hotpath
func (r *rd) take(n int) []byte {
	if n < 0 || r.remaining() < n {
		r.bad = true
		return nil
	}
	v := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

// bytesZC reads a length-prefixed byte field, ALIASING the frame buffer:
// the result is only valid while the envelope's borrow is held. Empty
// fields decode as nil, matching gob.
func (r *rd) bytesZC() []byte {
	n := int(r.u32())
	if n == 0 {
		if r.bad {
			return nil
		}
		return nil
	}
	return r.take(n)
}

// bytesCopy reads a length-prefixed byte field into fresh memory, for
// fields whose consumers outlive the receive handler.
func (r *rd) bytesCopy() []byte {
	b := r.bytesZC()
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

func (r *rd) str() string {
	n := int(r.u32())
	if n == 0 {
		return ""
	}
	return string(r.take(n))
}

func (r *rd) hdr() ReqHeader {
	return ReqHeader{Client: NodeID(r.i32()), Req: ReqID(r.u64()), Epoch: Epoch(r.u32())}
}

func (r *rd) attr() Attr {
	return Attr{
		Ino:     ObjectID(r.u64()),
		IsDir:   r.b1(),
		Size:    r.u64(),
		Version: r.u64(),
		Nlink:   r.u32(),
	}
}

// DecodeBinary parses one frame body produced by BinarySize+EncodeBinary
// (metadata section immediately followed by the tail). The Data fields of
// DiskWrite, DiskWriteV, DiskReadRes, and DiskReadVRes alias body — the
// caller owns body's lifetime and signals it via Envelope.Borrowed —
// while FuncWrite.Data and FuncReadRes.Data are copied out. A frame that
// does not parse returns ErrCorruptFrame; corrupt input never panics.
func DecodeBinary(body []byte) (*Envelope, error) {
	r := rd{b: body}
	from := NodeID(r.i32())
	to := NodeID(r.i32())
	t := r.u8()
	if r.bad {
		return nil, ErrCorruptFrame
	}
	var p Message
	switch t {
	case btRejoin:
		p = &Rejoin{ReqHeader: r.hdr()}
	case btKeepAlive:
		p = &KeepAlive{ReqHeader: r.hdr()}
	case btHeartbeat:
		p = &Heartbeat{ReqHeader: r.hdr()}
	case btLookup:
		p = &Lookup{ReqHeader: r.hdr(), Path: r.str()}
	case btCreate:
		p = &Create{ReqHeader: r.hdr(), Path: r.str(), IsDir: r.b1()}
	case btUnlink:
		p = &Unlink{ReqHeader: r.hdr(), Path: r.str()}
	case btRename:
		p = &Rename{ReqHeader: r.hdr(), OldPath: r.str(), NewPath: r.str()}
	case btTruncate:
		p = &Truncate{ReqHeader: r.hdr(), Ino: ObjectID(r.u64()), Blocks: r.u32()}
	case btOpen:
		p = &Open{ReqHeader: r.hdr(), Ino: ObjectID(r.u64()), Write: r.b1()}
	case btClose:
		p = &Close{ReqHeader: r.hdr(), Ino: ObjectID(r.u64()), Handle: Handle(r.u64())}
	case btGetAttr:
		p = &GetAttr{ReqHeader: r.hdr(), Ino: ObjectID(r.u64())}
	case btSetAttr:
		p = &SetAttr{ReqHeader: r.hdr(), Ino: ObjectID(r.u64()), NewSize: r.u64()}
	case btReaddir:
		p = &Readdir{ReqHeader: r.hdr(), Ino: ObjectID(r.u64())}
	case btGetBlocks:
		p = &GetBlocks{ReqHeader: r.hdr(), Ino: ObjectID(r.u64())}
	case btAllocBlocks:
		p = &AllocBlocks{ReqHeader: r.hdr(), Ino: ObjectID(r.u64()), Count: r.u32()}
	case btLockAcquire:
		p = &LockAcquire{ReqHeader: r.hdr(), Ino: ObjectID(r.u64()), Mode: LockMode(r.u8())}
	case btLockRelease:
		p = &LockRelease{ReqHeader: r.hdr(), Ino: ObjectID(r.u64()), To: LockMode(r.u8())}
	case btLockDowngraded:
		p = &LockDowngraded{ReqHeader: r.hdr(), Ino: ObjectID(r.u64()),
			To: LockMode(r.u8()), Demand: DemandID(r.u64())}
	case btReassert:
		m := &Reassert{ReqHeader: r.hdr()}
		if n := r.count(9); n > 0 {
			m.Locks = make([]LockClaim, n)
			for i := range m.Locks {
				m.Locks[i] = LockClaim{Ino: ObjectID(r.u64()), Mode: LockMode(r.u8())}
			}
		}
		p = m
	case btRenewObjects:
		m := &RenewObjects{ReqHeader: r.hdr()}
		if n := r.count(8); n > 0 {
			m.Inos = make([]ObjectID, n)
			for i := range m.Inos {
				m.Inos[i] = ObjectID(r.u64())
			}
		}
		p = m
	case btFuncRead:
		p = &FuncRead{ReqHeader: r.hdr(), Ino: ObjectID(r.u64()),
			Offset: r.u64(), Length: r.u32()}
	case btFuncWrite:
		p = &FuncWrite{ReqHeader: r.hdr(), Ino: ObjectID(r.u64()),
			Offset: r.u64(), Data: r.bytesCopy()}
	case btReply:
		m := &Reply{Client: NodeID(r.i32()), Req: ReqID(r.u64()),
			Status: Status(r.u8()), Err: Errno(r.u8())}
		body, err := decodeResult(&r)
		if err != nil {
			return nil, err
		}
		m.Body = body
		p = m
	case btDemand:
		p = &Demand{ID: DemandID(r.u64()), Ino: ObjectID(r.u64()),
			Mode: LockMode(r.u8()), Server: NodeID(r.i32())}
	case btDemandAck:
		p = &DemandAck{Client: NodeID(r.i32()), ID: DemandID(r.u64())}
	case btDiskRead:
		p = &DiskRead{Client: NodeID(r.i32()), Req: ReqID(r.u64()), Block: r.u64()}
	case btDiskReadRes:
		p = &DiskReadRes{Req: ReqID(r.u64()), Err: Errno(r.u8()),
			Ver: r.u64(), Data: r.bytesZC()}
	case btDiskWrite:
		p = &DiskWrite{Client: NodeID(r.i32()), Req: ReqID(r.u64()),
			Block: r.u64(), Ver: r.u64(), Data: r.bytesZC()}
	case btDiskWriteRes:
		p = &DiskWriteRes{Req: ReqID(r.u64()), Err: Errno(r.u8())}
	case btDiskWriteV:
		m := &DiskWriteV{Client: NodeID(r.i32()), Req: ReqID(r.u64())}
		if n := r.count(16); n > 0 {
			m.Blocks = make([]BlockVec, n)
			for i := range m.Blocks {
				m.Blocks[i] = BlockVec{Block: r.u64(), Ver: r.u64()}
			}
		}
		m.Data = r.bytesZC()
		p = m
	case btDiskWriteVRes:
		m := &DiskWriteVRes{Req: ReqID(r.u64()), Err: Errno(r.u8())}
		if n := r.count(1); n > 0 {
			m.Errs = make([]Errno, n)
			for i := range m.Errs {
				m.Errs[i] = Errno(r.u8())
			}
		}
		p = m
	case btDiskReadV:
		m := &DiskReadV{Client: NodeID(r.i32()), Req: ReqID(r.u64())}
		if n := r.count(8); n > 0 {
			m.Blocks = make([]uint64, n)
			for i := range m.Blocks {
				m.Blocks[i] = r.u64()
			}
		}
		p = m
	case btDiskReadVRes:
		m := &DiskReadVRes{Req: ReqID(r.u64()), Err: Errno(r.u8())}
		if n := r.count(1); n > 0 {
			m.Errs = make([]Errno, n)
			for i := range m.Errs {
				m.Errs[i] = Errno(r.u8())
			}
		}
		if n := r.count(8); n > 0 {
			m.Vers = make([]uint64, n)
			for i := range m.Vers {
				m.Vers[i] = r.u64()
			}
		}
		m.Data = r.bytesZC()
		p = m
	case btFenceSet:
		p = &FenceSet{Admin: NodeID(r.i32()), Req: ReqID(r.u64()),
			Target: NodeID(r.i32()), On: r.b1()}
	case btFenceRes:
		p = &FenceRes{Req: ReqID(r.u64()), Err: Errno(r.u8())}
	case btDLockAcquire:
		p = &DLockAcquire{Client: NodeID(r.i32()), Req: ReqID(r.u64()),
			Start: r.u64(), Count: r.u32(), TTL: time.Duration(r.i64())}
	case btDLockRelease:
		p = &DLockRelease{Client: NodeID(r.i32()), Req: ReqID(r.u64()),
			Start: r.u64(), Count: r.u32()}
	case btDLockRes:
		p = &DLockRes{Req: ReqID(r.u64()), Err: Errno(r.u8())}
	case btShardMigrate:
		m := &ShardMigrate{Src: NodeID(r.i32()), HID: r.u64(),
			Path: r.str(), Attr: r.attr()}
		if n := r.count(12); n > 0 {
			m.Blocks = make([]BlockRef, n)
			for i := range m.Blocks {
				m.Blocks[i] = BlockRef{Disk: NodeID(r.i32()), Num: r.u64()}
			}
		}
		p = m
	case btShardMigrateRes:
		p = &ShardMigrateRes{HID: r.u64(), Err: Errno(r.u8())}
	case btReplicaPrepare:
		p = &ReplicaPrepare{From: NodeID(r.i32()), Ballot: r.u64()}
	case btReplicaPromise:
		p = &ReplicaPromise{From: NodeID(r.i32()), Ballot: r.u64(),
			OK: r.b1(), Accepted: r.b1(),
			AcceptedBallot: r.u64(), AcceptedHolder: NodeID(r.i32())}
	case btReplicaPropose:
		p = &ReplicaPropose{From: NodeID(r.i32()), Ballot: r.u64(),
			Holder: NodeID(r.i32())}
	case btReplicaAccept:
		p = &ReplicaAccept{From: NodeID(r.i32()), Ballot: r.u64(), OK: r.b1()}
	case btReplicaInfo:
		p = &ReplicaInfo{ReqHeader: r.hdr()}
	default:
		return nil, ErrCorruptFrame
	}
	if r.bad || r.off != len(r.b) {
		return nil, ErrCorruptFrame
	}
	return &Envelope{From: from, To: to, Payload: p}, nil
}

// decodeResult parses a Reply body. FuncReadRes data is copied (its
// consumer hands it to user callbacks that outlive the handler).
func decodeResult(r *rd) (Result, error) {
	switch t := r.u8(); t {
	case brNil:
		return nil, nil
	case brLookupRes:
		return LookupRes{Attr: r.attr()}, nil
	case brCreateRes:
		return CreateRes{Attr: r.attr()}, nil
	case brOpenRes:
		return OpenRes{Handle: Handle(r.u64()), Attr: r.attr()}, nil
	case brAttrRes:
		return AttrRes{Attr: r.attr()}, nil
	case brReaddirRes:
		var res ReaddirRes
		if n := r.count(9); n > 0 {
			res.Entries = make([]DirEntry, n)
			for i := range res.Entries {
				res.Entries[i] = DirEntry{Name: r.str(), Ino: ObjectID(r.u64()), IsDir: r.b1()}
			}
		}
		return res, nil
	case brBlocksRes:
		res := BlocksRes{Attr: r.attr()}
		if n := r.count(12); n > 0 {
			res.Blocks = make([]BlockRef, n)
			for i := range res.Blocks {
				res.Blocks[i] = BlockRef{Disk: NodeID(r.i32()), Num: r.u64()}
			}
		}
		return res, nil
	case brAllocRes:
		res := AllocRes{Attr: r.attr(), First: r.u32()}
		if n := r.count(12); n > 0 {
			res.Blocks = make([]BlockRef, n)
			for i := range res.Blocks {
				res.Blocks[i] = BlockRef{Disk: NodeID(r.i32()), Num: r.u64()}
			}
		}
		return res, nil
	case brLockRes:
		return LockRes{Mode: LockMode(r.u8())}, nil
	case brRejoinRes:
		return RejoinRes{Epoch: Epoch(r.u32())}, nil
	case brReassertRes:
		return ReassertRes{Epoch: Epoch(r.u32())}, nil
	case brFuncReadRes:
		return FuncReadRes{Data: r.bytesCopy()}, nil
	case brReplicaInfoRes:
		return ReplicaInfoRes{Role: r.u8(), Ballot: r.u64(),
			Active: NodeID(r.i32())}, nil
	default:
		return nil, ErrCorruptFrame
	}
}
