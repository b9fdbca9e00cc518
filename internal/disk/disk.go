// Package disk implements the shared storage devices on the SAN. Per the
// paper (§2), the devices are deliberately dumb: they execute block reads
// and writes for any initiator, enforce a fence table on behalf of the
// lease authorities (one floor epoch per authority and initiator, which
// every request's stamp is judged against), and — solely for the GFS
// comparison baseline — implement dlock, an expiring lock over a
// disk-address range. They keep no network views, run no membership
// protocol, and never initiate messages.
package disk

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/blockstore"
	"repro/internal/bufpool"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// BlockSize is the data block size used throughout the installation.
const BlockSize = blockstore.BlockSize

// zeroBlock serves every hole read (a block never written). It is shared
// and read-only by contract: everything downstream of a DiskReadRes
// either copies the data or treats it as immutable, so handing out one
// block of zeros replaces a fresh 4 KiB allocation per hole read.
var zeroBlock = make([]byte, BlockSize)

// Sender transmits a message on the SAN.
type Sender func(to msg.NodeID, m msg.Message)

// Observer lets the consistency oracle watch data movement. All fields
// are optional. The Ver stamps are oracle metadata that rides along with
// block data; the protocol itself never reads them.
type Observer struct {
	// Committed fires when a write reaches stable storage.
	Committed func(disk msg.NodeID, block uint64, ver uint64, writer msg.NodeID)
	// Served fires when a read returns data.
	Served func(disk msg.NodeID, block uint64, ver uint64, reader msg.NodeID)
	// Torn fires when the media reports a torn block: at the open-time
	// recovery pass, or when a read is refused because the block's
	// checksum no longer matches its trailer.
	Torn func(disk msg.NodeID, block uint64)
}

// Config sizes and times a disk.
type Config struct {
	// Blocks is the device capacity in blocks.
	Blocks uint64
	// ServiceTime is the per-operation latency added before the reply is
	// sent (seek+transfer, measured on the disk's own clock).
	ServiceTime time.Duration
}

// DefaultConfig returns a small, fast disk suitable for simulation.
func DefaultConfig() Config {
	return Config{Blocks: 1 << 16, ServiceTime: 100 * time.Microsecond}
}

type dlock struct {
	start, count uint64
	owner        msg.NodeID
	expires      sim.Time // on the disk's clock
}

func (l dlock) overlaps(start uint64, count uint32) bool {
	return start < l.start+l.count && l.start < start+uint64(count)
}

// Disk is one SAN block device.
type Disk struct {
	id    msg.NodeID
	cfg   Config
	clock sim.Clock
	send  Sender
	obs   Observer
	media blockstore.Media
	// fences is media's fence table, which admit reads.
	fences *blockstore.Fences
	// into is media's read-into-a-buffer path, when it has one (serve).
	into   readerInto
	tracer *trace.Tracer

	dlocks []dlock

	// busyUntil serializes media operations: a single actuator services
	// one request at a time, so concurrent requests queue (local clock).
	busyUntil sim.Time

	reads, writes, fencedOps *stats.Counter
	queueWait                *stats.Histogram
	// mediaErrs counts refused media answers (torn blocks, I/O errors).
	// It is created lazily so an installation that never hits one —
	// every simulation — registers exactly the instruments it always
	// did.
	reg       *stats.Registry
	prefix    string
	mediaErrs *stats.Counter
	// batchOps/batchBlocks count vectored operations and the blocks they
	// carried (lazy, like mediaErrs): blocks/ops is the mean batch size.
	batchOps    *stats.Counter
	batchBlocks *stats.Counter

	// writeBatch and writePos are writeV's scratch: the disk serves one
	// request at a time, and the media keeps neither past the call.
	writeBatch []blockstore.BlockWrite
	writePos   []int
}

// Option customizes a disk beyond its Config.
type Option func(*Disk)

// WithMedia selects the storage the disk serves from (default: a fresh
// in-memory blockstore.Mem, the simulator's media). A file-backed
// blockstore.File makes the device durable: acknowledged writes and the
// fence table survive a crash-restart of the hosting process.
func WithMedia(m blockstore.Media) Option {
	return func(d *Disk) {
		if m != nil {
			d.media = m
		}
	}
}

// WithTracer attaches a trace bus: media durability events (open-time
// recovery, torn blocks, refused reads) are emitted as EvDisk events.
func WithTracer(tr *trace.Tracer) Option {
	return func(d *Disk) { d.tracer = tr }
}

// New creates a disk. send transmits replies on the SAN; reg records the
// disk's operation counters (may be nil). If the media carries recovered
// state (a reopened file-backed store), the recovery outcome is reported
// through the Observer and the tracer before the disk serves anything.
func New(id msg.NodeID, cfg Config, clock sim.Clock, send Sender, reg *stats.Registry, obs Observer, opts ...Option) *Disk {
	if reg == nil {
		reg = stats.NewRegistry()
	}
	prefix := fmt.Sprintf("disk.%v.", id)
	d := &Disk{
		id:        id,
		cfg:       cfg,
		clock:     clock,
		send:      send,
		obs:       obs,
		media:     blockstore.NewMem(),
		reads:     reg.Counter(prefix + "reads"),
		writes:    reg.Counter(prefix + "writes"),
		fencedOps: reg.Counter(prefix + "rejected"),
		queueWait: reg.Histogram(prefix + "queue_wait"),
		reg:       reg,
		prefix:    prefix,
	}
	for _, opt := range opts {
		opt(d)
	}
	d.fences = d.media.Fences()
	d.into, _ = d.media.(readerInto)
	d.reportRecovery()
	return d
}

// reportRecovery surfaces the media's open-time recovery pass through
// the trace bus and the observer: one summary event, one fence-replay
// event per restored fence, one torn event per damaged block.
func (d *Disk) reportRecovery() {
	rep := d.media.Recovery()
	if !rep.Recovered {
		return
	}
	d.trace(trace.Event{Type: trace.EvDisk, Node: d.id, Time: d.clock.Now(),
		Note: fmt.Sprintf("recovered journal=%d fenced=%d verified=%d torn=%d",
			rep.JournalRecords, len(rep.Fenced), rep.Verified, len(rep.Torn))})
	for _, f := range rep.Fenced {
		d.trace(trace.Event{Type: trace.EvDisk, Node: d.id, Time: d.clock.Now(),
			Peer: f.Target, Epoch: f.Below, Note: fmt.Sprintf("fence-replay authority=%v", f.Authority)})
	}
	for _, block := range rep.Torn {
		d.trace(trace.Event{Type: trace.EvDisk, Node: d.id, Time: d.clock.Now(),
			Block: block, Note: "torn"})
		if d.obs.Torn != nil {
			d.obs.Torn(d.id, block)
		}
	}
}

func (d *Disk) trace(e trace.Event) {
	if d.tracer.Enabled() {
		d.tracer.Emit(e)
	}
}

// mediaFailed accounts and reports one refused media answer and returns
// the errno the reply should carry.
func (d *Disk) mediaFailed(block uint64, err error) msg.Errno {
	if d.mediaErrs == nil {
		d.mediaErrs = d.reg.Counter(d.prefix + "media_errors")
	}
	d.mediaErrs.Inc()
	if errors.Is(err, blockstore.ErrTorn) {
		d.trace(trace.Event{Type: trace.EvDisk, Node: d.id, Time: d.clock.Now(),
			Block: block, Note: "torn-read"})
		if d.obs.Torn != nil {
			d.obs.Torn(d.id, block)
		}
		return msg.ErrTorn
	}
	d.trace(trace.Event{Type: trace.EvDisk, Node: d.id, Time: d.clock.Now(),
		Block: block, Note: "media-error: " + err.Error()})
	return msg.ErrMedia
}

// ID returns the disk's node ID.
func (d *Disk) ID() msg.NodeID { return d.id }

// Capacity returns the number of blocks.
func (d *Disk) Capacity() uint64 { return d.cfg.Blocks }

// Deliver handles one SAN datagram: it is the disk's network handler. A
// fence is a control operation, with no media access and no service time.
func (d *Disk) Deliver(env msg.Envelope) {
	if _, fence := env.Payload.(*msg.FenceSet); fence || d.cfg.ServiceTime <= 0 {
		d.handle(env.Payload)
		return
	}
	d.withService(env)
}

// handle runs one request.
func (d *Disk) handle(m msg.Message) {
	switch m := m.(type) {
	case *msg.DiskRead:
		d.read(m)
	case *msg.DiskWrite:
		d.write(m)
	case *msg.DiskReadV:
		// A vectored batch occupies ONE service slot: the actuator pays one
		// seek for the whole transfer, which is the point of scatter-gather.
		d.readV(m)
	case *msg.DiskWriteV:
		d.writeV(m)
	case *msg.FenceSet:
		d.fence(m)
	case *msg.DLockAcquire:
		d.dlockAcquire(m)
	case *msg.DLockRelease:
		d.dlockRelease(m)
	default:
		// Dumb device: silently ignore anything it does not understand.
	}
}

// withService models a single-actuator device: requests are serviced one
// at a time, ServiceTime each, FIFO. Concurrent arrivals queue, so a
// burst of N operations (e.g. a phase-4 flush of N dirty pages) takes
// ~N·ServiceTime — which is exactly what makes the flush-window ablation
// (experiment A1) meaningful. A write's payload may alias a borrowed
// receive buffer, and the request runs past the handler's return: the
// borrow is retained until it has.
func (d *Disk) withService(env msg.Envelope) {
	now := d.clock.Now()
	start := now
	if d.busyUntil.After(start) {
		start = d.busyUntil
	}
	d.queueWait.Observe(start.Sub(now))
	d.busyUntil = start.Add(d.cfg.ServiceTime)
	env.Retain()
	d.clock.AfterFunc(d.busyUntil.Sub(now), func() {
		d.handle(env.Payload)
		env.Release()
	})
}

// admit judges a request's stamp against the fence table: it refuses
// initiator's I/O stamped with authority and an epoch below the fence
// that authority raised against it. A refusal counts in the disk's
// rejected counter and, traced, names the pair, the stamp and the floor.
func (d *Disk) admit(initiator, authority msg.NodeID, epoch msg.Epoch) bool {
	floor := d.fences.Floor(authority, initiator)
	if epoch >= floor {
		return true
	}
	d.fencedOps.Inc()
	if d.tracer.Enabled() {
		d.tracer.Emit(trace.Event{Type: trace.EvDisk, Node: d.id, Time: d.clock.Now(),
			Peer: initiator, Epoch: epoch, Note: fmt.Sprintf("fenced authority=%v floor=%d", authority, floor)})
	}
	return false
}

func (d *Disk) read(m *msg.DiskRead) {
	res := &msg.DiskReadRes{Req: m.Req}
	switch {
	case !d.admit(m.Client, m.Authority, m.Epoch):
		res.Err = msg.ErrFenced
	case m.Block >= d.cfg.Blocks:
		res.Err = msg.ErrRange
	default:
		d.reads.Inc()
		d.serve(m.Block, res)
		if res.Err == msg.OK && d.obs.Served != nil {
			d.obs.Served(d.id, m.Block, res.Ver, m.Client)
		}
	}
	d.send(m.Client, res)
}

// readerInto is media that reads a block into the caller's buffer
// (blockstore.File).
type readerInto interface {
	ReadInto(block uint64, dst []byte) (ver uint64, ok bool, err error)
}

// serve fills a scalar read's reply. Media that can read into the
// caller's buffer fills a pooled one, which the reply lends to the
// fabric (msg.EndLoan); Mem serves its own read-only buffer without a
// copy, and never lends. An unwritten block reads as zeroBlock either
// way.
func (d *Disk) serve(block uint64, res *msg.DiskReadRes) {
	if d.into == nil {
		data, ver, ok, err := d.media.Read(block)
		switch {
		case err != nil:
			res.Err = d.mediaFailed(block, err)
		case ok:
			res.Data, res.Ver = data, ver
		default:
			res.Data = zeroBlock
		}
		return
	}
	buf := bufpool.Get(BlockSize)
	ver, ok, err := d.into.ReadInto(block, buf)
	switch {
	case err != nil:
		bufpool.Put(buf)
		res.Err = d.mediaFailed(block, err)
	case ok:
		res.Lend(buf)
		res.Ver = ver
	default:
		bufpool.Put(buf)
		res.Data = zeroBlock
	}
}

func (d *Disk) write(m *msg.DiskWrite) {
	res := &msg.DiskWriteRes{Req: m.Req}
	switch {
	case !d.admit(m.Client, m.Authority, m.Epoch):
		res.Err = msg.ErrFenced
	case m.Block >= d.cfg.Blocks:
		res.Err = msg.ErrRange
	case len(m.Data) > BlockSize:
		res.Err = msg.ErrRange
	default:
		// The acknowledgment below is the protocol's durability point:
		// Media.Write returns only once the block is stable (for the
		// file-backed store, after the data and trailer are written and
		// fsynced), so a crash after the ACK cannot lose the write.
		if err := d.media.Write(m.Block, m.Data, m.Ver); err != nil {
			res.Err = d.mediaFailed(m.Block, err)
		} else {
			d.writes.Inc()
			if d.obs.Committed != nil {
				d.obs.Committed(d.id, m.Block, m.Ver, m.Client)
			}
		}
	}
	d.send(m.Client, res)
}

// batchAccount records one vectored operation of n blocks and emits its
// EvDisk trace, built only when the bus is on. The counters are created
// lazily (like mediaErrs) so an installation that never sends a batch
// registers exactly the instruments it always did.
func (d *Disk) batchAccount(op string, n int) {
	if d.batchOps == nil {
		d.batchOps = d.reg.Counter(d.prefix + "batched_ops")
		d.batchBlocks = d.reg.Counter(d.prefix + "batched_blocks")
	}
	d.batchOps.Inc()
	d.batchBlocks.Add(uint64(n))
	if d.tracer.Enabled() {
		d.tracer.Emit(trace.Event{Type: trace.EvDisk, Node: d.id, Time: d.clock.Now(),
			Note: fmt.Sprintf("%s n=%d", op, n)})
	}
}

// writeV executes a vectored write as one device operation: per-block
// fence/range checks, then a single Media.WriteV whose group commit makes
// the acknowledgment mean the whole batch is durable. Partial failures
// degrade to per-block errnos; Err carries the first failure.
func (d *Disk) writeV(m *msg.DiskWriteV) {
	n := len(m.Blocks)
	res := &msg.DiskWriteVRes{Req: m.Req, Errs: make([]msg.Errno, n)}
	fail := func(e msg.Errno) {
		res.Err = e
		for i := range res.Errs {
			res.Errs[i] = e
		}
		d.send(m.Client, res)
	}
	if !d.admit(m.Client, m.Authority, m.Epoch) {
		// Fencing is per stamp, not per block: a fenced batch is refused
		// in one judgment.
		fail(msg.ErrFenced)
		return
	}
	if len(m.Data) != n*BlockSize {
		fail(msg.ErrRange)
		return
	}
	batch := slices.Grow(d.writeBatch[:0], n)
	pos := slices.Grow(d.writePos[:0], n) // batch index -> request index
	for i, bv := range m.Blocks {
		if bv.Block >= d.cfg.Blocks {
			res.Errs[i] = msg.ErrRange
			continue
		}
		batch = append(batch, blockstore.BlockWrite{
			Block: bv.Block,
			Data:  m.Data[i*BlockSize : (i+1)*BlockSize],
			Ver:   bv.Ver,
		})
		pos = append(pos, i)
	}
	for j, err := range d.media.WriteV(batch) {
		i := pos[j]
		if err != nil {
			res.Errs[i] = d.mediaFailed(batch[j].Block, err)
			continue
		}
		d.writes.Inc()
		if d.obs.Committed != nil {
			d.obs.Committed(d.id, batch[j].Block, batch[j].Ver, m.Client)
		}
	}
	clear(batch) // unpin the request's payload
	d.writeBatch, d.writePos = batch[:0], pos[:0]
	for _, e := range res.Errs {
		if e != msg.OK {
			res.Err = e
			break
		}
	}
	d.batchAccount("writev", n)
	d.send(m.Client, res)
}

// readV serves a vectored read as one device operation. Blocks[i] lands
// in Data[i·BlockSize:(i+1)·BlockSize]; unwritten blocks read as zeros,
// per-block failures as errnos with a zero payload slot. Fence and range
// are judged before there is a payload, so a refusal costs none; the
// payload is then a pooled buffer the media fills in place — one
// Media.ReadV per stretch of in-range blocks, which for anything but a
// malformed request is the whole batch — and the reply lends it to the
// fabric (msg.EndLoan).
func (d *Disk) readV(m *msg.DiskReadV) {
	n := len(m.Blocks)
	res := &msg.DiskReadVRes{Req: m.Req, Errs: make([]msg.Errno, n)}
	refuse := func(e msg.Errno) {
		res.Err = e
		for i := range res.Errs {
			res.Errs[i] = e
		}
		d.send(m.Client, res)
	}
	if !d.admit(m.Client, m.Authority, m.Epoch) {
		refuse(msg.ErrFenced)
		return
	}
	inRange := 0
	for _, block := range m.Blocks {
		if block < d.cfg.Blocks {
			inRange++
		}
	}
	if inRange == 0 {
		d.batchAccount("readv", n)
		refuse(msg.ErrRange)
		return
	}
	res.Vers = make([]uint64, n)
	data := bufpool.Get(n * BlockSize)
	for lo := 0; lo < n; {
		if m.Blocks[lo] >= d.cfg.Blocks {
			res.Errs[lo] = msg.ErrRange
			clear(data[lo*BlockSize : (lo+1)*BlockSize])
			lo++
			continue
		}
		hi := lo + 1
		for hi < n && m.Blocks[hi] < d.cfg.Blocks {
			hi++
		}
		errs := d.media.ReadV(m.Blocks[lo:hi], data[lo*BlockSize:hi*BlockSize], res.Vers[lo:hi])
		for i := lo; i < hi; i++ {
			d.reads.Inc()
			if errs != nil && errs[i-lo] != nil {
				res.Errs[i] = d.mediaFailed(m.Blocks[i], errs[i-lo])
				continue
			}
			if d.obs.Served != nil {
				d.obs.Served(d.id, m.Blocks[i], res.Vers[i], m.Client)
			}
		}
		lo = hi
	}
	for _, e := range res.Errs {
		if e != msg.OK {
			res.Err = e
			break
		}
	}
	res.Lend(data)
	d.batchAccount("readv", n)
	d.send(m.Client, res)
}

func (d *Disk) fence(m *msg.FenceSet) {
	res := &msg.FenceRes{Req: m.Req}
	// Durable before acknowledged: the file-backed media journals and
	// fsyncs the fence record before RaiseFence returns, so a FenceRes
	// implies the fence survives a disk-controller restart (§2.1).
	if err := d.media.RaiseFence(blockstore.Fence{Authority: m.Authority, Target: m.Target, Below: m.Below}); err != nil {
		res.Err = d.mediaFailed(0, err)
	}
	res.Top = d.fences.Top(m.Authority)
	d.send(m.Admin, res)
}

// Media returns the storage the disk serves from (test/bootstrap hook).
func (d *Disk) Media() blockstore.Media { return d.media }

// Close releases the disk's media. The disk must no longer be serving.
func (d *Disk) Close() error { return d.media.Close() }

// PeekBlock returns a copy of a block's stable contents and version
// (oracle/test hook; not reachable over the SAN protocol). Torn or
// otherwise unreadable blocks report ok=false.
func (d *Disk) PeekBlock(block uint64) (data []byte, ver uint64, ok bool) {
	data, ver, ok, err := d.media.Read(block)
	if err != nil || !ok {
		return nil, 0, false
	}
	// Media may return its internal buffer (read-only contract); PeekBlock
	// promises a copy the caller owns.
	return append([]byte(nil), data...), ver, true
}

// --- GFS-baseline dlocks ----------------------------------------------------

func (d *Disk) dlockAcquire(m *msg.DLockAcquire) {
	now := d.clock.Now()
	d.expireDlocks(now)
	res := &msg.DLockRes{Req: m.Req}
	if !d.admit(m.Client, m.Authority, m.Epoch) {
		res.Err = msg.ErrFenced
		d.send(m.Client, res)
		return
	}
	for i := range d.dlocks {
		l := &d.dlocks[i]
		if l.overlaps(m.Start, m.Count) {
			if l.owner == m.Client && l.start == m.Start && l.count == uint64(m.Count) {
				// Re-acquire of the identical range extends the TTL. A
				// merely-overlapping self-owned range must NOT: silently
				// extending a different lock would leave the requested
				// range partly unprotected while the client believes it
				// holds it.
				l.expires = now.Add(m.TTL)
				d.send(m.Client, res)
				return
			}
			res.Err = msg.ErrDLockHeld
			d.send(m.Client, res)
			return
		}
	}
	d.dlocks = append(d.dlocks, dlock{
		start: m.Start, count: uint64(m.Count), owner: m.Client,
		expires: now.Add(m.TTL),
	})
	d.send(m.Client, res)
}

func (d *Disk) dlockRelease(m *msg.DLockRelease) {
	res := &msg.DLockRes{Req: m.Req}
	kept := d.dlocks[:0]
	for _, l := range d.dlocks {
		if l.owner == m.Client && l.start == m.Start && l.count == uint64(m.Count) {
			continue
		}
		kept = append(kept, l)
	}
	d.dlocks = kept
	d.send(m.Client, res)
}

func (d *Disk) expireDlocks(now sim.Time) {
	kept := d.dlocks[:0]
	for _, l := range d.dlocks {
		if now.Before(l.expires) {
			kept = append(kept, l)
		}
	}
	d.dlocks = kept
}

// DLockCount returns the number of live dlocks (test hook).
func (d *Disk) DLockCount() int {
	d.expireDlocks(d.clock.Now())
	return len(d.dlocks)
}
