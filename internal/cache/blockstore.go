package cache

import (
	"bytes"
	"hash/maphash"

	"repro/internal/bufpool"
)

// The content store deduplicates CLEAN page content: pages whose bytes
// are identical — across files, across block indexes, across fills —
// share one pooled buffer. Dirty content never enters the store: a
// dirty page's bytes are private to its object until they reach the SAN
// (MarkClean), because dedup must never let one object's un-flushed
// write become visible through another object's page.
//
// Ownership rules versus the bufpool borrow contract:
//
//   - A block owns its buffer. The buffer came from bufpool.Get and is
//     returned by bufpool.Put exactly once, when the block's reference
//     count drops to zero. Pages holding the block alias block.data and
//     must never Put it themselves.
//   - A dirty page owns a private pooled buffer (Page.blk == nil); the
//     cache Puts it when the page is dropped, or hands it to the store
//     when MarkClean promotes the content (internOwned — the store
//     either adopts the buffer or Puts it on a dedup hit).
//   - Readers in internal/client copy page content out before the end
//     of the executor turn, exactly as before: sharing changes who may
//     recycle a buffer, not when its content is stable.
type block struct {
	hash uint64
	// data is a pooled buffer sized (by class) for its content; len is
	// the exact content length.
	data []byte
	refs int
	// next links the blocks whose content hashes alike.
	next *block
}

// hash addresses a page by content: the runtime's memhash, a word at a
// time, under a seed drawn once per Cache. Content addresses never leave
// the process and need no collision resistance against adversaries:
// equal hashes are confirmed by a byte compare before any sharing
// happens, so a collision costs a missed dedup never a wrong read. The
// hash only buckets — nothing iterates the store in hash order where
// the order could be observed — so a seed that differs from process to
// process leaves simulated runs repeatable.
//
//tank:hotpath
func (c *Cache) hash(b []byte) uint64 { return maphash.Bytes(c.seed, b) }

// share takes a reference on the resident block holding exactly data;
// nil when there is none.
//
//tank:hotpath
func (c *Cache) share(h uint64, data []byte) *block {
	for b := c.blocks[h]; b != nil; b = b.next {
		if bytes.Equal(b.data, data) {
			b.refs++
			c.dedupHits.Inc()
			return b
		}
	}
	return nil
}

// adopt makes buf a resident block with one reference.
//
//tank:owns buf
func (c *Cache) adopt(h uint64, buf []byte) *block {
	b := &block{hash: h, data: buf, refs: 1, next: c.blocks[h]} //tank:adopt(block owns data; released by deref)
	c.blocks[h] = b
	c.addBytes(int64(len(buf)))
	return b
}

// intern returns a block holding a copy of data, sharing an existing
// block when one with identical content is resident. The caller's data
// may alias a transport receive buffer; it is copied before the turn
// ends.
//
//tank:hotpath
func (c *Cache) intern(data []byte) *block {
	h := c.hash(data)
	if b := c.share(h, data); b != nil {
		return b
	}
	buf := bufpool.Get(len(data))
	copy(buf, data)
	return c.adopt(h, buf)
}

// internOwned is intern for a buffer the caller already owns (a dirty
// page being promoted by MarkClean): on a dedup hit the buffer is
// recycled, otherwise the store adopts it without copying.
//
//tank:hotpath
//tank:owns buf
func (c *Cache) internOwned(buf []byte) *block {
	h := c.hash(buf)
	if b := c.share(h, buf); b != nil {
		bufpool.Put(buf)
		return b
	}
	return c.adopt(h, buf)
}

// deref releases one page's reference; the last reference removes the
// block from the store and recycles its buffer.
func (c *Cache) deref(b *block) {
	b.refs--
	if b.refs > 0 {
		return
	}
	if head := c.blocks[b.hash]; head == b {
		if b.next == nil {
			delete(c.blocks, b.hash)
		} else {
			c.blocks[b.hash] = b.next
		}
	} else {
		for ; head.next != b; head = head.next {
		}
		head.next = b.next
	}
	c.addBytes(-int64(len(b.data)))
	bufpool.Put(b.data)
}

// SharedBlocks returns the number of distinct content blocks resident
// (tests and experiments: ResidentPages − SharedBlocks pages are served
// without their own buffer).
func (c *Cache) SharedBlocks() int {
	n := 0
	for _, b := range c.blocks {
		for ; b != nil; b = b.next {
			n++
		}
	}
	return n
}
