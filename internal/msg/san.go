package msg

import "time"

// SAN messages. Disks are deliberately dumb (§2): they respond to block
// I/O, maintain a fence table, and — for the GFS-baseline only — a small
// table of expiring disk-address-range locks (dlocks). They never initiate
// messages and keep no view of the network.
//
// Every request a disk judges against its fence table carries a stamp:
// Authority, the lease authority the issuing protocol instance registered
// with (a lone server's ID, or a replica group's first member's), and
// Epoch, that registration's epoch. The disk refuses the request when the
// epoch is below the fence Authority raised against Client (FenceSet). A
// server's own requests are stamped with its authority and epoch 0, and
// nothing fences a server.

// DiskRead asks a disk for one block.
type DiskRead struct {
	Client    NodeID
	Authority NodeID
	Epoch     Epoch
	Req       ReqID
	Block     uint64
}

func (*DiskRead) Kind() Kind { return KindSANIO }

func (m *DiskRead) layout(c *coder) {
	c.stamp(&m.Client, &m.Authority, &m.Epoch)
	c.req(&m.Req)
	c.u64(&m.Block)
}

// DiskReadRes returns block contents. Ver is the oracle's version stamp
// for the data (consistency checking only; not protocol-visible).
type DiskReadRes struct {
	Req ReqID
	Err Errno
	// lent marks Data as a pooled buffer on loan to the fabric (Lend,
	// EndLoan in borrow.go). It never travels.
	lent bool
	// borrowCell counts the borrows of the frame Data aliases on the
	// receiving side (borrow.go), in the padding here. It never travels.
	borrowCell
	Data []byte
	Ver  uint64
}

func (*DiskReadRes) Kind() Kind { return KindSANReply }

func (m *DiskReadRes) layout(c *coder) {
	c.req(&m.Req)
	c.errno(&m.Err)
	c.u64(&m.Ver) // not struct order: the bulk field goes last
	c.tail(&m.Data)
}

// DiskWrite writes one block. Ver is the oracle version stamp assigned
// when the data was produced in the writer's cache.
type DiskWrite struct {
	Client    NodeID
	Authority NodeID
	Epoch     Epoch
	// borrowCell counts the borrows of the frame Data aliases on the
	// receiving side (borrow.go), in the padding here. It never travels.
	borrowCell
	Req   ReqID
	Block uint64
	Data  []byte
	Ver   uint64
}

func (*DiskWrite) Kind() Kind { return KindSANIO }

func (m *DiskWrite) layout(c *coder) {
	c.stamp(&m.Client, &m.Authority, &m.Epoch)
	c.req(&m.Req)
	c.u64(&m.Block)
	c.u64(&m.Ver) // not struct order: the bulk field goes last
	c.tail(&m.Data)
}

// DiskWriteRes acknowledges a write (or reports ErrFenced/ErrRange).
type DiskWriteRes struct {
	Req ReqID
	Err Errno
}

func (*DiskWriteRes) Kind() Kind { return KindSANReply }

func (m *DiskWriteRes) layout(c *coder) { c.req(&m.Req); c.errno(&m.Err) }

// BlockVec names one block inside a vectored SAN write: where it goes and
// the oracle version stamp of the data occupying its slot of the shared
// payload.
type BlockVec struct {
	Block uint64
	Ver   uint64
}

// DiskWriteV writes a batch of blocks in ONE SAN message: Blocks[i] is
// stored from the contiguous payload slot Data[i*BlockSize:(i+1)*BlockSize].
// The disk executes the whole batch under a single service slot and — on
// durable media — a single group-commit fsync, so the acknowledgment
// means every block of the batch is stable (ack-implies-batch-durable).
// The fence judges the batch as a whole and the range each block; a
// partial failure degrades to per-block result codes in DiskWriteVRes.
type DiskWriteV struct {
	Client    NodeID
	Authority NodeID
	Epoch     Epoch
	// borrowCell counts the borrows of the frame Data aliases on the
	// receiving side (borrow.go), in the padding here. It never travels.
	borrowCell
	Req    ReqID
	Blocks []BlockVec
	// Data is the batch payload: len(Blocks)·BlockSize bytes, each block
	// zero-padded into its fixed-size slot.
	Data []byte
}

func (*DiskWriteV) Kind() Kind { return KindSANIO }

func (m *DiskWriteV) layout(c *coder) {
	c.stamp(&m.Client, &m.Authority, &m.Epoch)
	c.req(&m.Req)
	for i := range vec(c, &m.Blocks, 16) {
		c.u64(&m.Blocks[i].Block)
		c.u64(&m.Blocks[i].Ver)
	}
	c.tail(&m.Data)
}

// DiskWriteVRes acknowledges a vectored write. Err is OK only when every
// block committed; otherwise it carries the first failure and Errs holds
// the per-block outcomes (Errs[i] answers Blocks[i]). An OK response
// implies the entire batch is durable.
type DiskWriteVRes struct {
	Req  ReqID
	Err  Errno
	Errs []Errno
}

func (*DiskWriteVRes) Kind() Kind { return KindSANReply }

func (m *DiskWriteVRes) layout(c *coder) { c.req(&m.Req); c.errno(&m.Err); c.errnos(&m.Errs) }

// DiskReadV reads a batch of blocks in one SAN message.
type DiskReadV struct {
	Client    NodeID
	Authority NodeID
	Epoch     Epoch
	Req       ReqID
	Blocks    []uint64
}

func (*DiskReadV) Kind() Kind { return KindSANIO }

func (m *DiskReadV) layout(c *coder) {
	c.stamp(&m.Client, &m.Authority, &m.Epoch)
	c.req(&m.Req)
	for i := range vec(c, &m.Blocks, 8) {
		c.u64(&m.Blocks[i])
	}
}

// DiskReadVRes returns the batch contents: Blocks[i] of the request is
// served at Data[i*BlockSize:(i+1)*BlockSize] with version Vers[i].
// Per-block failures (torn block, out of range) land in Errs[i]; the
// corresponding payload slot is zeros. Unwritten blocks read as zeros
// with Err OK, as in the scalar protocol. A reply that serves no block at
// all — the initiator is fenced, or every block is out of range — carries
// no payload.
type DiskReadVRes struct {
	Req ReqID
	Err Errno
	// lent marks Data as a pooled buffer on loan to the fabric (Lend,
	// EndLoan in borrow.go). It never travels.
	lent bool
	// borrowCell counts the borrows of the frame Data aliases on the
	// receiving side (borrow.go), in the padding here. It never travels.
	borrowCell
	Errs []Errno
	Vers []uint64
	Data []byte
}

func (*DiskReadVRes) Kind() Kind { return KindSANReply }

func (m *DiskReadVRes) layout(c *coder) {
	c.req(&m.Req)
	c.errno(&m.Err)
	c.errnos(&m.Errs)
	for i := range vec(c, &m.Vers, 8) {
		c.u64(&m.Vers[i])
	}
	c.tail(&m.Data)
}

// FenceSet raises Authority's fence against Target to Below: from then
// on the disk refuses every request of Target's stamped with Authority
// and an epoch below it. Only servers send it. A fence only rises — a
// FenceSet below the one in place changes nothing — and the device
// enforces it indefinitely (§1.2); a fenced client gets back in by
// registering anew, at an epoch the authority mints above it.
type FenceSet struct {
	Admin     NodeID
	Req       ReqID
	Authority NodeID
	Target    NodeID
	Below     Epoch
}

func (*FenceSet) Kind() Kind { return KindFence }

func (m *FenceSet) layout(c *coder) {
	c.node(&m.Admin)
	c.req(&m.Req)
	c.node(&m.Authority)
	c.node(&m.Target)
	c.u32((*uint32)(&m.Below))
}

// FenceRes acknowledges a FenceSet. Top is the highest fence the disk
// holds under the FenceSet's Authority, against any target: a server
// that lost its epoch counter mints above it.
type FenceRes struct {
	Req ReqID
	Err Errno
	Top Epoch
}

func (*FenceRes) Kind() Kind { return KindFence }

func (m *FenceRes) layout(c *coder) { c.req(&m.Req); c.errno(&m.Err); c.u32((*uint32)(&m.Top)) }

// DLockAcquire asks the disk for a GFS-style expiring lock over the block
// range [Start, Start+Count). Used only by the dlock baseline (§5): the
// disk, not a server, is the locking authority, and the lock times out
// after TTL on the disk's clock.
type DLockAcquire struct {
	Client    NodeID
	Authority NodeID
	Epoch     Epoch
	Req       ReqID
	Start     uint64
	Count     uint32
	TTL       time.Duration
}

func (*DLockAcquire) Kind() Kind { return KindSANIO }

func (m *DLockAcquire) layout(c *coder) {
	c.stamp(&m.Client, &m.Authority, &m.Epoch)
	c.req(&m.Req)
	c.u64(&m.Start)
	c.u32(&m.Count)
	c.i64((*int64)(&m.TTL))
}

// DLockRelease releases a dlock before its TTL expires.
type DLockRelease struct {
	Client NodeID
	Req    ReqID
	Start  uint64
	Count  uint32
}

func (*DLockRelease) Kind() Kind { return KindSANIO }

func (m *DLockRelease) layout(c *coder) {
	c.node(&m.Client)
	c.req(&m.Req)
	c.u64(&m.Start)
	c.u32(&m.Count)
}

// DLockRes answers either dlock operation; Err is ErrDLockHeld when the
// range is locked by another initiator.
type DLockRes struct {
	Req ReqID
	Err Errno
}

func (*DLockRes) Kind() Kind { return KindSANReply }

func (m *DLockRes) layout(c *coder) { c.req(&m.Req); c.errno(&m.Err) }

// SANReplyReq returns the request ID a disk's reply answers and the errno
// it carries, for the handlers that complete a SAN call by its request ID
// (and the nodes that route it to one of several protocol instances by
// the ID's high bits); ok is false for anything that is not a disk reply.
func SANReplyReq(m Message) (req ReqID, errno Errno, ok bool) {
	switch m := m.(type) {
	case *DiskReadRes:
		return m.Req, m.Err, true
	case *DiskWriteRes:
		return m.Req, m.Err, true
	case *DiskReadVRes:
		return m.Req, m.Err, true
	case *DiskWriteVRes:
		return m.Req, m.Err, true
	case *FenceRes:
		return m.Req, m.Err, true
	case *DLockRes:
		return m.Req, m.Err, true
	}
	return 0, 0, false
}
