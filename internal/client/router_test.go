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
// until one cache serves the whole node, the router splits the budget
// across its instances instead of granting each of them all of it.
func TestNodeCacheQuotaIsSplitAcrossAuthorities(t *testing.T) {
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
		var resident int64
		for _, sub := range node.Subs() {
			resident += sub.Cache().ResidentBytes()
		}
		if resident > quota {
			t.Errorf("client %d holds %d bytes resident across %d authorities, node quota %d",
				ci, resident, opts.Shards, quota)
		}
		if resident == 0 {
			t.Errorf("client %d cached nothing", ci)
		}
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
