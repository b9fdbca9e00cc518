package client

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/msg"
	"repro/internal/trace"
)

// Read-ahead (DESIGN.md §13.3): once two consecutive block reads
// establish a run on an object, the client fetches ahead of the reader in
// windows — one vectored SAN read per target disk per window (the same
// DiskReadV machinery the flush path batches writes with). The first
// window is firstWindow blocks; each time the reader enters the newest
// window the next one is issued at double the size, up to maxWindow,
// starting where coverage ends, so one window is on the wire while the
// one before it is consumed and never more than two are outstanding.
// Anything that breaks the run or takes the object's pages — a read out
// of sequence, giving the lock up or down, a lease expiry, a Truncate,
// the last Close — resets the object's detector, and the next run starts
// from firstWindow again.
//
// Read-ahead is pure optimization layered on the data path, and it must
// not weaken any protocol invariant:
//
//   - It only ever runs from a read that was admitted under a valid
//     lease and a covering shared lock, and each batch holds ioBegin
//     for its object, so a demand downgrade drains the read-ahead
//     exactly as it drains demand reads — a batch can never complete
//     into a revoked cache.
//   - Completion re-checks that the lock is still held before
//     installing pages (the lease may have expired, or a demand may
//     have been complied with, while the batch was in flight; cancelCalls
//     also fails the batch with ErrStale on expiry and crash).
//   - Completion installs a block only where the file still maps the
//     index to the block that was read (stillMapped): a Truncate does
//     not wait for reads in flight, and what it freed must not come back.
//   - Installed pages go through Cache.FillPrefetched, which defers to
//     any page a demand read or a write installed first — in
//     particular it never overwrites dirty content.
//
// cache.prefetch_hits / cache.prefetch_wasted attribute the outcome of
// every prefetched page; client.<id>.prefetch_batches counts issued
// batches; trace EvPrefetch records each batch for the event stream.

// firstWindow is the size of a run's first read-ahead window: small, so
// that two reads that happen to be consecutive in a random workload cost
// little.
const firstWindow = 2

// maxWindow resolves Config.Prefetch to the largest read-ahead window in
// blocks (0 = no read-ahead). The window is also held to a quarter of
// the cache's page budget — two windows can be outstanding, and a cache
// smaller than its own read-ahead would evict it unread.
func (c Config) maxWindow() int {
	w := c.Prefetch
	switch {
	case w < 0:
		return 0
	case w == 0:
		w = DefaultPrefetch
	}
	pages := c.CacheMaxPages
	if q := int(c.CacheQuota / BlockSize); c.CacheQuota > 0 && (pages == 0 || q < pages) {
		pages = q
	}
	if pages > 0 {
		w = min(w, pages/4)
	}
	return w
}

// readAhead is one object's sequential detector and read-ahead window, in
// its record. It lives as long as the object's pages may: forgetReadAhead
// runs wherever they are dropped.
type readAhead struct {
	// next is the block index that would extend the run, run its length.
	next uint64
	run  int
	// size is the newest issued window's, in blocks (0: none issued yet),
	// and mark its first block: the read that reaches mark issues the next
	// window, which starts where this one ends.
	size int
	mark uint64
}

// forgetReadAhead discards ino's detector and window: the next run on it
// starts over. In-flight batches complete (or are cancelled) on their
// own; what they may install is decided at completion.
func (c *Client) forgetReadAhead(ino msg.ObjectID) {
	if o := c.objs[ino]; o != nil {
		o.ra = readAhead{}
		c.tidy(ino, o)
	}
}

// dropObject discards everything cached for ino: the pages and the
// read-ahead state of a file, the names of a directory.
func (c *Client) dropObject(ino msg.ObjectID) {
	c.cache.Drop(ino)
	c.forgetReadAhead(ino)
	c.dropDir(ino)
}

// notePrefetchRead advances the sequential detector of ino, whose record
// is o, with a demand read of block idx and issues the next read-ahead
// window when one is due.
func (c *Client) notePrefetchRead(ino msg.ObjectID, o *object, idx uint64) {
	if c.maxWindow <= 0 {
		return
	}
	ra := &o.ra
	if ra.run > 0 && ra.next == idx {
		ra.run++
	} else {
		*ra = readAhead{run: 1}
	}
	ra.next = idx + 1
	switch {
	case ra.run < 2:
		return
	case ra.size == 0:
		ra.mark = idx + 1
		ra.size = min(firstWindow, c.maxWindow)
	case idx >= ra.mark:
		ra.mark += uint64(ra.size)
		ra.size = min(2*ra.size, c.maxWindow)
	default:
		return
	}
	c.issueWindow(ino, o, ra.mark, ra.mark+uint64(ra.size))
}

// behind reports whether a page served to the reader of o, whose cached
// state is co (either may be nil), goes to the cold end of the cache's
// ring once consumed (DESIGN §13.2): the read extends a run, and the file
// has already lost a page to eviction, so it does not fit beside what
// else the cache holds. A file that fits, and a first pass, keep LRU.
func behind(o *object, co *cache.Object) bool {
	return o != nil && o.ra.run >= 2 && co != nil && co.Evicted()
}

// issueWindow reads blocks [start, end) of ino ahead: those mapped, not
// resident and not already on the wire, one batch per disk.
func (c *Client) issueWindow(ino msg.ObjectID, o *object, start, end uint64) {
	co := c.cache.Object(ino)
	if co == nil {
		return
	}
	// Candidates in ascending index order; batches grouped per disk in
	// first-appearance order, so issue order is deterministic (simulated
	// runs must replay identically from a seed).
	type batch struct {
		idxs []uint64
		nums []uint64
	}
	var order []msg.NodeID
	byDisk := make(map[msg.NodeID]*batch)
	end = min(end, uint64(co.Map.Len()))
	for j := start; j < end; j++ {
		if _, onWire := o.onWire[j]; onWire || co.Page(j) != nil {
			continue
		}
		ref := co.Map.At(j)
		bt := byDisk[ref.Disk]
		if bt == nil {
			bt = &batch{}
			byDisk[ref.Disk] = bt
			order = append(order, ref.Disk)
		}
		bt.idxs = append(bt.idxs, j)
		bt.nums = append(bt.nums, ref.Num)
	}
	for _, d := range order {
		c.issuePrefetch(ino, o, d, byDisk[d].idxs, byDisk[d].nums)
	}
}

// stillMapped reports whether block idx of ino is still the block ref
// names. A read is issued for the block the map held then; by the time it
// completes a Truncate may have freed that block, and its content must
// not enter the cache under an index that no longer owns it.
func (c *Client) stillMapped(ino msg.ObjectID, idx uint64, ref msg.BlockRef) bool {
	o := c.cache.Object(ino)
	return o != nil && idx < uint64(o.Map.Len()) && o.Map.At(idx) == ref
}

// issuePrefetch sends one read-ahead batch to disk d and installs the
// returned blocks that are still wanted when the reply arrives.
func (c *Client) issuePrefetch(ino msg.ObjectID, o *object, d msg.NodeID, idxs, nums []uint64) {
	if o.onWire == nil {
		o.onWire = make(map[uint64]msg.BlockRef)
	}
	for i, j := range idxs {
		o.onWire[j] = msg.BlockRef{Disk: d, Num: nums[i]}
	}
	c.ioBegin(ino)
	c.prefetchBatches.Inc()
	if c.tracer.Enabled() {
		c.emit(trace.Event{Type: trace.EvPrefetch, Ino: ino, Block: idxs[0],
			Note: fmt.Sprintf("window=%d", len(idxs))})
	}
	c.sanCall(d, func(req msg.ReqID, epoch msg.Epoch) msg.Message {
		return &msg.DiskReadV{Client: c.id, Authority: c.server, Epoch: epoch, Req: req, Blocks: nums}
	}, nil, func(reply msg.Message, errno msg.Errno) {
		c.ioEnd(ino, o)
		// The batch was read under the shared lock; install only if both
		// the batch succeeded and that lock still stands (a lease expiry
		// in the window means the content may no longer be ours to cache;
		// cancelCalls delivers ErrStale here on expiry and crash).
		res, _ := reply.(*msg.DiskReadVRes)
		if errno == msg.OK && (res == nil || len(res.Data) < len(idxs)*BlockSize ||
			!o.mode.Covers(msg.LockShared)) {
			errno = msg.ErrStale
		}
		for i, j := range idxs {
			ref := msg.BlockRef{Disk: d, Num: nums[i]}
			// A later batch may have claimed the index for another block.
			if o.onWire[j] == ref {
				delete(o.onWire, j)
			}
			blockErr := errno
			if blockErr == msg.OK && i < len(res.Errs) {
				blockErr = res.Errs[i]
			}
			if blockErr == msg.OK && c.stillMapped(ino, j, ref) {
				var ver uint64
				if i < len(res.Vers) {
					ver = res.Vers[i]
				}
				c.cache.FillPrefetched(ino, j, res.Data[i*BlockSize:(i+1)*BlockSize], ver)
			}
			c.servePrefetchWaiters(ino, o, j, blockErr)
		}
		c.tidy(ino, o)
	})
}

// servePrefetchWaiters completes any demand reads parked on block idx
// of a finished read-ahead batch: with the batch's error, or as a read
// issued now is served — from the page just installed, or, when the index
// no longer maps the block the batch read, from wherever it maps now.
func (c *Client) servePrefetchWaiters(ino msg.ObjectID, o *object, idx uint64, errno msg.Errno) {
	ws := o.parked[idx]
	if len(ws) == 0 {
		return
	}
	delete(o.parked, idx)
	for _, done := range ws {
		if errno != msg.OK {
			done(nil, errno)
			continue
		}
		c.serveBlock(ino, idx, done)
	}
}
