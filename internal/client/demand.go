package client

import (
	"slices"

	"repro/internal/bufpool"
	"repro/internal/msg"
	"repro/internal/trace"
)

// handleDemand answers a server-initiated lock demand (§1.2): the client
// complies — flushing dirty data covered by the lock and downgrading its
// cache — and reports completion with a LockDowngraded request. The server
// must hear at once that the demand arrived (silence is the delivery
// failure that starts its lease timer), and the report says that too: when
// it leaves in the executor turn the demand arrived in, nothing else is
// sent. When it cannot — a flush on the SAN, operations to drain, another
// compliance ahead of this one — a transport-level DemandAck goes now and
// the report follows, so the server can tell a slow flush from a dead
// client (DESIGN.md §19.2).
//
// Compliance is serialized per object: a demand arriving while an
// earlier one is mid-compliance (its flush still in flight) is deferred,
// coalesced to the strongest outstanding target. Without this, an
// escalated →None compliance could finish before a slower →Shared one,
// whose completion would then resurrect the lock and cache the client
// had just given up.
func (c *Client) handleDemand(m *msg.Demand) {
	if c.tracer.Enabled() {
		note := ""
		if c.names.dirs[m.Ino] != nil {
			note = "dir"
		}
		c.emit(trace.Event{Type: trace.EvDemandRecv, Peer: m.Server, Ino: m.Ino,
			To: m.Mode.String(), Note: note})
	}
	// Invalidate any lock grant currently in flight for this object: the
	// server sent this demand with knowledge of every grant it has made,
	// so a grant the client has not yet seen is covered by (and consumed
	// by) this demand. That goes for a directory lock riding on a reply
	// still on its way, and which directories those are nobody here knows:
	// any demand makes such a reply one that installs nothing.
	c.demands++
	o := c.obj(m.Ino)
	o.demanded = c.demands
	c.names.gen++

	c.arriving = m
	if o.complying {
		if cur := o.next; cur == nil || m.Mode < cur.Mode ||
			(m.Mode == cur.Mode && m.ID > cur.ID) {
			o.next = m
		}
	} else {
		o.complying = true
		c.runDemand(m)
	}
	if c.arriving == m {
		// No report left for it in this turn: say that it arrived.
		c.arriving = nil
		c.sendCtrl(m.Server, &msg.DemandAck{Client: c.id, ID: m.ID})
	}
}

// runDemand executes one demand while holding the object's compliance
// slot.
func (c *Client) runDemand(m *msg.Demand) {
	if m.Mode == msg.LockNone && c.dropDir(m.Ino) {
		// A directory: nothing to flush and nothing in flight under its
		// lock. What it covered is gone; all that is left is to say so.
		c.names.revoked.Inc()
	}
	if !c.holdsAbove(m) {
		// Nothing to downgrade (already compliant, or a stale demand from
		// before an expiry). Still report, so the server's lock table
		// resolves its demand state.
		c.reportDowngraded(m, c.downgradeBegin(m.Ino))
		return
	}
	c.whenIdle(m.Ino, func() { c.complyDemand(m) })
}

// holdsAbove reports whether the client holds a lock on m's object that
// is stronger than the mode m demands.
func (c *Client) holdsAbove(m *msg.Demand) bool {
	o := c.objs[m.Ino]
	return o != nil && o.mode > m.Mode
}

// reportDowngraded sends the LockDowngraded that ends a compliance — the
// caller holds the downgrade latch of the object, whose record is o; the
// acknowledgment drops it — and gives the compliance slot to the next
// demand.
func (c *Client) reportDowngraded(m *msg.Demand, o *object) {
	if c.arriving == m {
		c.arriving = nil // the report stands for the DemandAck
	}
	c.call(&msg.LockDowngraded{Ino: m.Ino, To: m.Mode, Demand: m.ID}, func(*msg.Reply) {
		c.downgradeEnd(m.Ino, o)
	})
	c.finishDemand(m.Ino, o)
}

// finishDemand releases the object's compliance slot and starts any
// deferred (strongest-coalesced) demand.
func (c *Client) finishDemand(ino msg.ObjectID, o *object) {
	if next := o.next; next != nil {
		o.next = nil
		c.runDemand(next)
		return
	}
	o.complying = false
	c.tidy(ino, o)
}

// complyDemand performs the flush + downgrade once in-flight operations
// under the lock have drained. The whole revocation — flush, cache
// adjustment, downgrade report — runs with the object's downgrade latch
// held, so no new operation can slip a fresh dirty page in between the
// flush and the downgrade.
func (c *Client) complyDemand(m *msg.Demand) {
	o := c.downgradeBegin(m.Ino)
	// Re-check: the world may have moved while this compliance waited for
	// in-flight operations to drain — in particular the lease may have
	// expired (clearing every lock) or a previous compliance may already
	// have downgraded far enough. Proceeding would resurrect a lock the
	// client no longer holds.
	if !c.holdsAbove(m) {
		c.reportDowngraded(m, o)
		return
	}
	c.emit(trace.Event{Type: trace.EvFlushStart, Ino: m.Ino, Note: "demand"})
	c.flushObject(m.Ino, func(msg.Errno) {
		c.emit(trace.Event{Type: trace.EvFlushDone, Ino: m.Ino, Note: "demand"})
		// The next holder reads size and map from the server: both are
		// final there before the lock moves.
		c.trim(m.Ino, func() {
			// And again: the flush and the trim are asynchronous, and a lease
			// that runs out under them clears every lock and then fires
			// these callbacks. Writing the demanded mode back then would be
			// a lock nobody granted.
			if c.holdsAbove(m) {
				c.downgradeTo(m.Ino, m.Mode)
			}
			c.reportDowngraded(m, o)
		})
	})
}

// downgradeTo gives up what the lock on ino covers beyond mode: all of it
// for LockNone, and for Shared nothing but the right to write — the pages,
// flushed by now, stay.
func (c *Client) downgradeTo(ino msg.ObjectID, mode msg.LockMode) {
	if mode == msg.LockNone {
		c.unlock(ino)
		c.oracle.LockInactive(c.id, ino)
		c.dropObject(ino)
		return
	}
	o := c.obj(ino)
	o.mode, o.ra = mode, readAhead{}
	c.oracle.LockActive(c.id, ino, mode)
}

// flushItem is one dirty page snapshotted for write-back: where it goes
// on the SAN and the version it carried when the flush began.
type flushItem struct {
	ino  msg.ObjectID
	idx  uint64
	disk msg.NodeID
	num  uint64
	ver  uint64
	data []byte
}

// flushScratch holds what a flush needs only while it collects: the
// dirty objects and page indexes, and the disks in the order they first
// appear. Grown on first use; each flush reslices it to zero.
type flushScratch struct {
	objs  []msg.ObjectID
	pages []uint64
	disks []msg.NodeID
}

// appendDirty appends ino's dirty pages to items as flush items. Pages
// without a block mapping (allocation lost) are skipped; nothing safe to
// do.
func (c *Client) appendDirty(items []flushItem, ino msg.ObjectID) []flushItem {
	o := c.cache.Object(ino)
	if o == nil || !o.HaveMap {
		return items
	}
	c.scratch.pages = c.cache.AppendDirtyPages(c.scratch.pages[:0], ino)
	items = slices.Grow(items, len(c.scratch.pages))
	mapped := uint64(o.Map.Len())
	for _, idx := range c.scratch.pages {
		if idx >= mapped {
			continue
		}
		p := o.Page(idx)
		if p == nil || !p.Dirty {
			continue
		}
		ref := o.Map.At(idx)
		// data ALIASES the live cache page. flushItems copies it into the
		// outgoing payload buffer in this same executor turn, before any
		// operation can re-dirty the page in place.
		items = append(items, flushItem{
			ino: ino, idx: idx, disk: ref.Disk, num: ref.Num,
			ver: p.Ver, data: p.Bytes(),
		})
	}
	return items
}

// flushBatchLimit returns the coalescing bound: how many dirty pages one
// SAN message may carry. FlushBatch=0 selects the default; 1 disables
// vectoring (the legacy per-page write path).
func (c *Client) flushBatchLimit() int {
	if c.cfg.FlushBatch == 0 {
		return DefaultFlushBatch
	}
	if c.cfg.FlushBatch < 1 {
		return 1
	}
	return c.cfg.FlushBatch
}

// flushCommitted handles one page's write acknowledgment: mark it clean
// (only if it was not re-dirtied with a newer version while the write was
// in flight) and tell the oracle the version reached stable storage.
func (c *Client) flushCommitted(it flushItem) {
	if cur := c.cache.Object(it.ino); cur != nil {
		if pg := cur.Page(it.idx); pg != nil && pg.Ver == it.ver {
			c.cache.MarkClean(it.ino, it.idx)
		}
	}
	c.oracle.Committed(c.id, it.ino, it.idx, it.ver)
}

// groupByDisk reorders items in place so that each disk's items are
// adjacent, disks in the order they first appear and each disk's items
// in their original order: a stable sort by first appearance, which
// finds nothing to move when every dirty file sits on one disk.
func (c *Client) groupByDisk(items []flushItem) {
	disks := c.scratch.disks[:0]
	grouped := true
	for i, it := range items {
		switch {
		case !slices.Contains(disks, it.disk):
			disks = append(disks, it.disk)
		case it.disk != items[i-1].disk:
			grouped = false // a disk seen before comes back
		}
	}
	c.scratch.disks = disks
	if !grouped {
		rank := func(it flushItem) int { return slices.Index(disks, it.disk) }
		slices.SortStableFunc(items, func(a, b flushItem) int { return rank(a) - rank(b) })
	}
}

// nextBatch returns the end of the batch that starts at items[lo]: at
// most limit items, all for one disk.
func nextBatch(items []flushItem, lo, limit int) int {
	hi := lo + 1
	for hi < len(items) && hi-lo < limit && items[hi].disk == items[lo].disk {
		hi++
	}
	return hi
}

// flushItems writes the items back, coalescing per target disk into
// vectored batches of at most flushBatchLimit pages; done fires when the
// last batch is acknowledged, with the first failure among them or OK. A
// single-page batch goes out as a scalar DiskWrite — identical to the
// pre-vectoring wire traffic — so flushes of one dirty page (the common
// case outside burst flushes) are unchanged. Per-block failures inside a
// batch leave those pages dirty for the next flush, exactly as a failed
// scalar write would.
//
// items is the flush's own: it is grouped by disk in place, and each
// batch's callback keeps its stretch of it.
func (c *Client) flushItems(items []flushItem, done func(msg.Errno)) {
	if done == nil {
		done = func(msg.Errno) {}
	}
	if len(items) == 0 {
		done(msg.OK)
		return
	}
	limit := c.flushBatchLimit()
	c.groupByDisk(items)
	batches := 0
	for lo := 0; lo < len(items); lo = nextBatch(items, lo, limit) {
		batches++
	}
	finish := gather(batches, done)
	for lo, hi := 0, 0; lo < len(items); lo = hi {
		hi = nextBatch(items, lo, limit)
		batch := items[lo:hi:hi]
		d := batch[0].disk
		if len(batch) == 1 {
			// Scalar write. The item's data aliases the live cache
			// page, which cache.Write may re-dirty in place while the
			// write is in flight — snapshot it into a pooled buffer,
			// returned on un-retransmitted acknowledgment.
			it := &batch[0]
			buf := bufpool.Get(len(it.data))
			copy(buf, it.data)
			c.sanCall(d, func(req msg.ReqID, epoch msg.Epoch) msg.Message {
				return &msg.DiskWrite{Client: c.id, Authority: c.server, Epoch: epoch,
					Req: req, Block: it.num, Data: buf, Ver: it.ver}
			}, buf, func(reply msg.Message, errno msg.Errno) {
				if errno == msg.OK {
					c.flushCommitted(*it)
				}
				finish(errno)
			})
			continue
		}
		vecs := make([]msg.BlockVec, len(batch))
		payload := bufpool.Get(len(batch) * BlockSize)
		for i, it := range batch {
			vecs[i] = msg.BlockVec{Block: it.num, Ver: it.ver}
			copy(payload[i*BlockSize:(i+1)*BlockSize], it.data)
		}
		c.sanCall(d, func(req msg.ReqID, epoch msg.Epoch) msg.Message {
			return &msg.DiskWriteV{Client: c.id, Authority: c.server, Epoch: epoch,
				Req: req, Blocks: vecs, Data: payload}
		}, payload, func(reply msg.Message, errno msg.Errno) {
			res, _ := reply.(*msg.DiskWriteVRes)
			failed := errno
			for i, it := range batch {
				e := errno
				if res != nil && i < len(res.Errs) {
					e = res.Errs[i]
				}
				if e == msg.OK {
					c.flushCommitted(it)
				} else if failed == msg.OK {
					failed = e
				}
			}
			finish(failed)
		})
	}
}

// flushObject writes every dirty page of ino to the SAN and calls done
// when the last write is acknowledged. done runs immediately when there
// is nothing dirty.
func (c *Client) flushObject(ino msg.ObjectID, done func(msg.Errno)) {
	c.flushItems(c.appendDirty(nil, ino), done)
}

// flushAll flushes every dirty object; done fires when all writes are
// acknowledged (or immediately when the cache is clean). Dirty pages of
// DIFFERENT objects that live on the same disk coalesce into the same
// batches — the scatter-gather message addresses blocks, not files.
func (c *Client) flushAll(done func(msg.Errno)) {
	c.scratch.objs = c.cache.AppendDirtyObjects(c.scratch.objs[:0])
	n := 0
	for _, ino := range c.scratch.objs {
		n += c.cache.Object(ino).DirtyCount()
	}
	items := make([]flushItem, 0, n)
	for _, ino := range c.scratch.objs {
		items = c.appendDirty(items, ino)
	}
	c.flushItems(items, done)
}
