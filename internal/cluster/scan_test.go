package cluster

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/msg"
)

// Looping sequential readers against a bounded cache (DESIGN §13.2):
// once a file has lost a page to eviction, the pages its reader
// consumes go to the cold end of the cache's ring, so part of a loop the
// cache cannot hold stays resident from one pass to the next. A first
// pass, and a file that fits, keep LRU.

// scanQuota is the reader's cache in pages, 4 MiB: the benchmark's
// scan_cold shape, with the default read-ahead window of up to 32 blocks.
const scanQuota = 1024

// scanCluster boots an installation whose reader, client 1, has a
// scanQuota-page cache, and writes files of the given sizes in blocks,
// /scan0, /scan1, ..., from client 0. Each block carries its file and
// index.
func scanCluster(t *testing.T, sizes ...int) *Cluster {
	t.Helper()
	opts := DefaultOptions()
	opts.CacheQuota = scanQuota * BlockSize
	cl := New(opts)
	cl.Start()
	data := make([]byte, BlockSize)
	for f, n := range sizes {
		h, _ := cl.MustOpen(0, scanPath(f), true, true)
		for i := 0; i < n; i++ {
			binary.BigEndian.PutUint64(data, uint64(f))
			binary.BigEndian.PutUint64(data[8:], uint64(i))
			if e := cl.Write(0, h, uint64(i), data); e != msg.OK {
				t.Fatalf("write %s block %d: %v", scanPath(f), i, e)
			}
		}
		if e := cl.Sync(0); e != msg.OK {
			t.Fatalf("sync %s: %v", scanPath(f), e)
		}
		if e := cl.Close(0, h); e != msg.OK {
			t.Fatalf("close %s: %v", scanPath(f), e)
		}
	}
	return cl
}

func scanPath(f int) string { return fmt.Sprintf("/scan%d", f) }

// sanBlocksRead is the number of blocks the installation's disks have
// read.
func sanBlocksRead(cl *Cluster) uint64 {
	var n uint64
	for _, d := range cl.Disks {
		n += cl.Reg.CounterValue(fmt.Sprintf("disk.%v.reads", d.ID()))
	}
	return n
}

// scanPass reads file f's n blocks in order on client 1, checking each,
// and returns the blocks the disks read meanwhile.
func scanPass(t *testing.T, cl *Cluster, f, n int) uint64 {
	t.Helper()
	before := sanBlocksRead(cl)
	h, _ := cl.MustOpen(1, scanPath(f), false, false)
	for i := 0; i < n; i++ {
		got, e := cl.Read(1, h, uint64(i))
		if e != msg.OK {
			t.Fatalf("read %s block %d: %v", scanPath(f), i, e)
		}
		if binary.BigEndian.Uint64(got) != uint64(f) || binary.BigEndian.Uint64(got[8:]) != uint64(i) {
			t.Fatalf("read %s block %d: wrong content", scanPath(f), i)
		}
	}
	if e := cl.Close(1, h); e != msg.OK {
		t.Fatalf("close %s: %v", scanPath(f), e)
	}
	return sanBlocksRead(cl) - before
}

// A reader cycling over 16 files that together hold four times its cache
// keeps part of the loop: from the third pass on, each pass reads at most
// 0.8 of the blocks from the SAN (about 0.76 here). Under LRU alone every
// block is evicted before the loop comes back to it, and every pass reads
// all 4096.
func TestCyclicScanKeepsPartOfTheLoop(t *testing.T) {
	const files, blocks = 16, scanQuota / 4
	sizes := make([]int, files)
	for f := range sizes {
		sizes[f] = blocks
	}
	cl := scanCluster(t, sizes...)
	for pass := 1; pass <= 6; pass++ {
		var read uint64
		for f := 0; f < files; f++ {
			read += scanPass(t, cl, f, blocks)
		}
		t.Logf("pass %d: %d of %d blocks read from the SAN", pass, read, files*blocks)
		if pass >= 3 && read*10 > 8*files*blocks {
			t.Fatalf("pass %d read %d of %d blocks from the SAN, want at most 0.8 of them", pass, read, files*blocks)
		}
	}
	if w := cl.Reg.CounterValue("client.n11.cache.prefetch_wasted"); w != 0 {
		t.Fatalf("%d read-ahead pages evicted unread", w)
	}
}

// Guard: a file half the cache, read twice after another file filled it,
// is read from the SAN once. Its first pass evicts the other file's pages
// and none of its own, so it keeps LRU and stays resident.
func TestHalfCacheFileRereadAfterAFullCache(t *testing.T) {
	cl := scanCluster(t, scanQuota, scanQuota/2)
	scanPass(t, cl, 0, scanQuota)
	if got := scanPass(t, cl, 1, scanQuota/2); got != scanQuota/2 {
		t.Fatalf("first pass read %d blocks from the SAN, want %d", got, scanQuota/2)
	}
	if got := scanPass(t, cl, 1, scanQuota/2); got != 0 {
		t.Fatalf("second pass read %d blocks from the SAN, want 0", got)
	}
}

// Guard: a file that fits, read twice into an empty cache, is read from
// the SAN once.
func TestFittingFileRereadFromAnEmptyCache(t *testing.T) {
	const blocks = scanQuota * 3 / 4
	cl := scanCluster(t, blocks)
	if got := scanPass(t, cl, 0, blocks); got != blocks {
		t.Fatalf("first pass read %d blocks from the SAN, want %d", got, blocks)
	}
	if got := scanPass(t, cl, 0, blocks); got != 0 {
		t.Fatalf("second pass read %d blocks from the SAN, want 0", got)
	}
}
