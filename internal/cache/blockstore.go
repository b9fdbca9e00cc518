package cache

import (
	"bytes"
	"hash/crc32"

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
	hash uint32
	// data is a pooled buffer sized (by class) for its content; len is
	// the exact content length.
	data []byte
	refs int
	// next links the blocks whose content hashes alike, or the free list.
	next *block
}

// castagnoli is the CRC32C table; on amd64 and arm64 the checksum runs
// on the CPU's CRC instructions, as blockstore's does.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// hash addresses a page by content: its CRC32C (DESIGN §13.1). The key
// only picks a chain: equal keys are confirmed by a byte compare before
// any sharing happens, so a collision costs a missed dedup, never a wrong
// read. Nor does the key resist a client that crafts collisions: the
// chains it builds cost a compare a link in every client that reads its
// pages, but under the paper's trust model such a client already has raw
// write access to the SAN and can overwrite those clients' blocks
// outright. Content addresses never leave the process, and nothing
// iterates the store in key order where the order could be observed.
func hash(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// share takes a reference on the resident block holding exactly data;
// nil when there is none.
func (s *store) share(h uint32, data []byte) *block {
	for b := s.blocks[h]; b != nil; b = b.next {
		if bytes.Equal(b.data, data) {
			b.refs++
			s.dedupHits.Inc()
			return b
		}
	}
	return nil
}

// insert files b in the store under hash h.
func (s *store) insert(h uint32, b *block) {
	b.hash, b.next = h, s.blocks[h]
	s.blocks[h] = b
}

// intern returns a block holding a copy of data, sharing an existing
// block when one with identical content is resident. The caller's data
// may alias a transport receive buffer; it is copied before the turn
// ends.
func (s *store) intern(data []byte) *block {
	h := hash(data)
	if b := s.share(h, data); b != nil {
		return b
	}
	b := s.newBlock()
	s.setData(b, data)
	s.insert(h, b)
	return b
}

// promote files a flushed page's private block in the store: the page
// shares an identical resident block and its own is freed, or its own
// is inserted as it stands.
func (s *store) promote(p *Page) {
	h := hash(p.blk.data)
	if b := s.share(h, p.blk.data); b != nil {
		s.freeBlock(p.blk)
		p.blk = b
		return
	}
	s.insert(h, p.blk)
}

// own returns a private block for a clean page about to be written: its
// own block taken out of the store when the page is the only holder,
// otherwise a new one (the others keep b).
func (s *store) own(b *block) *block {
	if b.refs > 1 {
		b.refs--
		return s.newBlock()
	}
	s.unhash(b)
	return b
}

// deref releases one page's reference; the last reference removes the
// block from the store and frees it.
func (s *store) deref(b *block) {
	b.refs--
	if b.refs > 0 {
		return
	}
	s.unhash(b)
	s.freeBlock(b)
}

// unhash takes b off its hash chain.
func (s *store) unhash(b *block) {
	if head := s.blocks[b.hash]; head == b {
		if b.next == nil {
			delete(s.blocks, b.hash)
		} else {
			s.blocks[b.hash] = b.next
		}
	} else {
		for ; head.next != b; head = head.next {
		}
		head.next = b.next
	}
}

// newBlock returns a header with one reference and no buffer, from the
// free list when it has one.
func (s *store) newBlock() *block {
	b := s.spare
	if b == nil {
		return &block{refs: 1}
	}
	s.spare, b.next, b.refs = b.next, nil, 1
	return b
}

// freeBlock returns b's buffer to the pool and its header to the free
// list.
func (s *store) freeBlock(b *block) {
	s.addBytes(-int64(len(b.data)))
	bufpool.Put(b.data)
	*b = block{next: s.spare}
	s.spare = b
}

// setData makes b hold a copy of data, taking a new buffer only when
// the content outgrows the one it has.
func (s *store) setData(b *block, data []byte) {
	s.addBytes(int64(len(data) - len(b.data)))
	if cap(b.data) < len(data) {
		bufpool.Put(b.data)
		b.data = bufpool.Get(len(data)) // a block owns its buffer from Get to freeBlock
	}
	b.data = b.data[:len(data)]
	copy(b.data, data)
}

// SharedBlocks returns the number of distinct content blocks the
// machine's store holds (tests and experiments: ResidentPages − SharedBlocks pages are served
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
