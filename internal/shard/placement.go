// Package shard partitions the Storage Tank namespace across N
// independent lease authorities — the Lustre-style metadata split
// ROADMAP item 1 calls for. Each shard runs the paper's protocol
// UNCHANGED: the lease is per (client, server) pair, nothing in the
// safety argument couples two files served by different authorities, so
// Theorem 3.1 holds per shard by construction (DESIGN.md §14).
//
// The package supplies the deterministic placement map (hash by
// default, pluggable subtree placement) and the installation's
// description every node of both fabrics is configured from
// (Installation, assembly.go). The client-side router that resolves
// every operation to its authority is client.Router, the simulated
// installation is internal/cluster with Shards > 1 (the tests beside this
// file drive it — scale curve, handoff fault matrix, Theorem 3.1 per
// shard and across a replica takeover), and cross-shard renames run the
// server-to-server handoff protocol in internal/server/shard.go.
package shard

import (
	"hash/fnv"
	"strings"
)

// Placement deterministically maps an absolute path to the index of the
// shard that owns it. Implementations must be pure functions of the
// path: every client and every server must agree on ownership without
// communicating.
type Placement interface {
	// Owner returns the owning shard index, or ok=false if no shard is
	// responsible for the path (possible only for partial maps like
	// Subtree).
	Owner(path string) (int, bool)
}

// Hash places paths by FNV-1a over the full path, modulo N — the
// default: total (every path routable) and statistically balanced.
type Hash struct{ N int }

// Owner implements Placement.
func (h Hash) Owner(path string) (int, bool) {
	if h.N <= 0 {
		return 0, false
	}
	f := fnv.New32a()
	f.Write([]byte(path))
	return int(f.Sum32() % uint32(h.N)), true
}

// Subtree places paths by longest matching directory prefix — the
// administrator-controlled split ("/home on shard 0, /scratch on shard
// 1"). Paths matching no prefix are unroutable.
type Subtree struct {
	// Prefixes maps a directory prefix ("/s0") to a shard index. "/"
	// may be used as a catch-all.
	Prefixes map[string]int
}

// Owner implements Placement.
func (t Subtree) Owner(path string) (int, bool) {
	best, bestLen, ok := 0, -1, false
	for prefix, idx := range t.Prefixes {
		if len(prefix) <= bestLen {
			continue
		}
		if path == prefix || prefix == "/" ||
			strings.HasPrefix(path, prefix+"/") {
			best, bestLen, ok = idx, len(prefix), true
		}
	}
	return best, ok
}
