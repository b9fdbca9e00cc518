package client_test

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/msg"
	"repro/internal/shard"
)

// fourShards places /s<i> on shard i, a disk and a file per shard.
func fourShards() cluster.Options {
	opts := cluster.DefaultOptions()
	opts.Shards, opts.Clients, opts.Disks = 4, 2, 1
	prefixes := make(map[string]int, opts.Shards)
	for si := 0; si < opts.Shards; si++ {
		prefixes[fmt.Sprintf("/s%d", si)] = si
	}
	opts.Placement = shard.Subtree{Prefixes: prefixes}
	return opts
}

// A node's cache bound is the node's, however many authorities it faces:
// one store serves every instance, so what it holds, read once from any
// instance, stays within the quota each file alone overflows.
func TestNodeCacheQuotaBoundsTheNode(t *testing.T) {
	const (
		quota  = 16 * cluster.BlockSize
		blocks = 24 // each file alone overflows the whole node's quota
	)
	opts := fourShards()
	opts.CacheQuota = quota
	cl := cluster.New(opts)
	cl.Start()
	for si := 0; si < opts.Shards; si++ {
		populateBlocks(t, cl, 0, fmt.Sprintf("/s%d/f", si), blocks)
	}
	for si := 0; si < opts.Shards; si++ {
		scanSANReads(t, cl, 1, fmt.Sprintf("/s%d/f", si), blocks)
	}
	for ci, node := range cl.Clients {
		// The node's figure: the gauge every instance's cache adds to.
		gauge := fmt.Sprintf("client.%v.cache.resident_bytes", node.Sub(0).ID())
		resident := cl.Reg.Gauge(gauge).Value()
		if resident > quota {
			t.Errorf("client %d holds %d bytes resident across %d authorities, node quota %d",
				ci, resident, opts.Shards, quota)
		}
		if resident == 0 {
			t.Errorf("client %d cached nothing", ci)
		}
	}
}

// One authority's idle part of the node's cache is lent to a busy one: a
// 12-block file on /s0 fits in a 16-block node cache that faces four
// authorities, so a second scan of it sends nothing to the SAN, and the
// first scan's read-ahead is held to a quarter of the node's budget, not
// of an authority's share of it.
func TestNodeCacheIsLentAcrossAuthorities(t *testing.T) {
	const (
		quota  = 16 * cluster.BlockSize
		blocks = 12
	)
	opts := fourShards()
	opts.CacheQuota = quota
	// The same bound in pages, which dedup does not shrink: /s1/f below
	// holds /s0/f's bytes.
	opts.CacheMaxPages = quota / cluster.BlockSize
	cl := cluster.New(opts)
	cl.Start()
	populateBlocks(t, cl, 0, "/s0/f", blocks)
	if first := scanSANReads(t, cl, 1, "/s0/f", blocks); first >= blocks {
		t.Errorf("first scan sent %d SAN messages for %d blocks, want fewer than one per block", first, blocks)
	}
	if second := scanSANReads(t, cl, 1, "/s0/f", blocks); second != 0 {
		t.Errorf("second scan sent %d SAN messages, want 0: the file fits in the node's cache", second)
	}
	if got := cl.Clients[1].Sub(0).Cache().ResidentBytes(); got > quota {
		t.Errorf("node holds %d bytes resident, quota %d", got, quota)
	}

	// What is lent is taken back: filling the node from /s1 evicts /s0's
	// pages, and /s0's object records it, so its next scan files what it
	// consumes at the ring's cold end (DESIGN §13.2).
	populateBlocks(t, cl, 0, "/s1/f", blocks)
	scanSANReads(t, cl, 1, "/s1/f", blocks)
	_, attr := cl.MustOpen(1, "/s0/f", false, false)
	if o := cl.Clients[1].Sub(0).Cache().Object(attr.Ino); o == nil || !o.Evicted() {
		t.Errorf("/s0/f's object does not record the eviction /s1's fill caused")
	}
}

// Content is stored once per machine, whichever authority's file it
// was read under: the same four blocks under /s0/f and /s1/f cost four
// blocks of the node's cache, not eight.
func TestNodeCacheDedupsAcrossAuthorities(t *testing.T) {
	const blocks = 4
	cl := cluster.New(fourShards())
	cl.Start()
	for _, path := range []string{"/s0/f", "/s1/f"} {
		populateBlocks(t, cl, 0, path, blocks)
	}
	for _, path := range []string{"/s0/f", "/s1/f"} {
		scanSANReads(t, cl, 1, path, blocks)
	}
	gauge := fmt.Sprintf("client.%v.cache.resident_bytes", cl.Clients[1].Sub(0).ID())
	if got, want := cl.Reg.Gauge(gauge).Value(), int64(blocks*cluster.BlockSize); got != want {
		t.Errorf("node holds %d bytes resident, want %d (%d blocks stored once)", got, want, blocks)
	}
}

// A handle names the instance that opened it, so the router keeps no
// table: the same file index on two shards gives two distinct handles,
// each served by its own authority, and a made-up handle is refused.
func TestRouterHandlesNameTheirAuthority(t *testing.T) {
	cl := cluster.New(fourShards())
	cl.Start()
	seen := map[msg.Handle]bool{}
	for si := 0; si < 4; si++ {
		path := fmt.Sprintf("/s%d/f", si)
		h, _ := cl.MustOpen(0, path, true, true)
		if seen[h] {
			t.Fatalf("handle %#x given out twice", h)
		}
		seen[h] = true
		data := make([]byte, cluster.BlockSize)
		data[0] = byte('a' + si)
		if e := cl.Write(0, h, 0, data); e != msg.OK {
			t.Fatalf("write %s: %v", path, e)
		}
		if got := cl.Clients[0].Sub(si).Cache().TotalDirty(); got != 1 {
			t.Fatalf("%s: shard %d's instance holds %d dirty pages, want 1", path, si, got)
		}
	}
	for _, h := range []msg.Handle{0, 999, 5 << 48, 1<<63 | 1} {
		if _, e := cl.Read(0, h, 0); e != msg.ErrBadHandle {
			t.Errorf("read on made-up handle %#x: %v, want ErrBadHandle", h, e)
		}
	}
	for h := range seen {
		if e := cl.Close(0, h); e != msg.OK {
			t.Errorf("close %#x: %v", h, e)
		}
	}
}
