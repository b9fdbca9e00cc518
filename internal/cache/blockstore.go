package cache

import (
	"bytes"
	"hash/maphash"

	"repro/internal/bufpool"
)

// The content store deduplicates CLEAN page content: pages whose bytes
// are identical — across files, across block indexes, across fills —
// share one pooled buffer. Dirty content never enters the store: a
// dirty page's bytes are private to its page until they reach the SAN
// (MarkClean), because dedup must never let one object's un-flushed
// write become visible through another object's page.
//
// Every page holds exactly one block, and the block is in the store iff
// the page is clean. Ownership rules versus the bufpool borrow contract:
//
//   - A block owns its buffer from bufpool.Get until freeBlock returns
//     it with bufpool.Put, exactly once. Pages alias block.data and never
//     Put it themselves.
//   - A clean page's block is in the store and refcounted; the last
//     deref frees it. A dirty page's block is private (refs 1, never in
//     the store): Write copies into it in place, MarkClean files it in
//     the store (promote — or frees it on a dedup hit), and removing the
//     page frees it.
//   - Block headers never leave the cache: freeBlock parks a header on a
//     free list and newBlock takes it back, so a fill allocates its Page
//     and nothing else.
//   - Readers in internal/client copy page content out before the end
//     of the executor turn, exactly as before: sharing changes who may
//     recycle a buffer, not when its content is stable.
type block struct {
	hash uint64
	// data is a pooled buffer sized (by class) for its content; len is
	// the exact content length.
	data []byte
	refs int
	// next links the blocks whose content hashes alike, or the free list.
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
func (c *Cache) hash(b []byte) uint64 { return maphash.Bytes(c.seed, b) }

// share takes a reference on the resident block holding exactly data;
// nil when there is none.
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

// insert files b in the store under hash h.
func (c *Cache) insert(h uint64, b *block) {
	b.hash, b.next = h, c.blocks[h]
	c.blocks[h] = b
}

// intern returns a block holding a copy of data, sharing an existing
// block when one with identical content is resident. The caller's data
// may alias a transport receive buffer; it is copied before the turn
// ends.
func (c *Cache) intern(data []byte) *block {
	h := c.hash(data)
	if b := c.share(h, data); b != nil {
		return b
	}
	b := c.newBlock()
	c.setData(b, data)
	c.insert(h, b)
	return b
}

// promote files a flushed page's private block in the store: the page
// shares an identical resident block and its own is freed, or its own
// is inserted as it stands.
func (c *Cache) promote(p *Page) {
	h := c.hash(p.blk.data)
	if b := c.share(h, p.blk.data); b != nil {
		c.freeBlock(p.blk)
		p.blk = b
		return
	}
	c.insert(h, p.blk)
}

// own returns a private block for a clean page about to be written: its
// own block taken out of the store when the page is the only holder,
// otherwise a new one (the others keep b).
func (c *Cache) own(b *block) *block {
	if b.refs > 1 {
		b.refs--
		return c.newBlock()
	}
	c.unhash(b)
	return b
}

// deref releases one page's reference; the last reference removes the
// block from the store and frees it.
func (c *Cache) deref(b *block) {
	b.refs--
	if b.refs > 0 {
		return
	}
	c.unhash(b)
	c.freeBlock(b)
}

// unhash takes b off its hash chain.
func (c *Cache) unhash(b *block) {
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
}

// newBlock returns a header with one reference and no buffer, from the
// free list when it has one.
func (c *Cache) newBlock() *block {
	b := c.spare
	if b == nil {
		return &block{refs: 1}
	}
	c.spare, b.next, b.refs = b.next, nil, 1
	return b
}

// freeBlock returns b's buffer to the pool and its header to the free
// list.
func (c *Cache) freeBlock(b *block) {
	c.addBytes(-int64(len(b.data)))
	bufpool.Put(b.data)
	*b = block{next: c.spare}
	c.spare = b
}

// setData makes b hold a copy of data, taking a new buffer only when
// the content outgrows the one it has.
func (c *Cache) setData(b *block, data []byte) {
	c.addBytes(int64(len(data) - len(b.data)))
	if cap(b.data) < len(data) {
		bufpool.Put(b.data)
		b.data = bufpool.Get(len(data)) // a block owns its buffer from Get to freeBlock
	}
	b.data = b.data[:len(data)]
	copy(b.data, data)
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
