package shard_test

import (
	"slices"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/replica"
	"repro/internal/rpcnet"
	"repro/internal/server"
	"repro/internal/shard"
)

// TestInstallationDerivesEveryNode: what a server, a replica member and a
// client are told about the installation, row by row.
func TestInstallationDerivesEveryNode(t *testing.T) {
	base := server.Config{Core: core.DefaultConfig()}
	base.Core.RetryInterval = 150 * time.Millisecond
	subtree := shard.Subtree{Prefixes: map[string]int{"/s0": 0, "/s1": 1}}
	two := func(p shard.Placement) shard.Installation {
		return shard.Installation{
			Authorities: []shard.Authority{
				{Authority: client.Authority{ID: 1}, Disks: map[msg.NodeID]uint64{1000: 64}},
				{Authority: client.Authority{ID: 2}, Disks: map[msg.NodeID]uint64{1001: 64}},
			},
			Disks:     []msg.NodeID{1000, 1001},
			Placement: p,
		}
	}
	hashOwner := func(path string) msg.NodeID {
		i, _ := shard.Hash{N: 2}.Owner(path)
		return msg.NodeID(1 + i)
	}
	paths := []string{"/s0/x", "/s1/x", "/a", "/b/c", "/elsewhere"}
	for _, row := range []struct {
		name  string
		in    shard.Installation
		node  msg.NodeID
		tune  *replica.Config
		disks []msg.NodeID // what node allocates from
		owner func(path string) msg.NodeID
		// group is the node's replica group, nil for a lone server.
		group []msg.NodeID
		term  time.Duration
	}{
		{
			name: "one authority",
			in: shard.Installation{
				Authorities: []shard.Authority{{Authority: client.Authority{ID: 1}, Disks: map[msg.NodeID]uint64{1000: 64, 1001: 64}}},
				Disks:       []msg.NodeID{1000, 1001},
			},
			node: 1, disks: []msg.NodeID{1000, 1001},
		},
		{name: "two shards, hash", in: two(nil), node: 2, disks: []msg.NodeID{1001}, owner: hashOwner},
		{name: "two shards, subtree", in: two(subtree), node: 1, disks: []msg.NodeID{1000},
			owner: func(path string) msg.NodeID {
				i, ok := subtree.Owner(path)
				if !ok {
					return msg.None
				}
				return msg.NodeID(1 + i)
			}},
		{
			name: "a replica group",
			in: shard.Installation{
				Authorities: []shard.Authority{{Authority: client.Authority{ID: 1, Group: []msg.NodeID{1, 101, 201}},
					Disks: map[msg.NodeID]uint64{1000: 64}}},
				Disks: []msg.NodeID{1000, 1001},
			},
			node: 101, disks: []msg.NodeID{1000},
			group: []msg.NodeID{1, 101, 201}, term: replica.DefaultLeaseTerm,
		},
		{
			name: "a replica group, term tuned",
			in: shard.Installation{
				Authorities: []shard.Authority{{Authority: client.Authority{ID: 1, Group: []msg.NodeID{1, 101, 201}},
					Disks: map[msg.NodeID]uint64{1000: 64}}},
				Disks: []msg.NodeID{1000, 1001},
			},
			node: 201, tune: &replica.Config{LeaseTerm: time.Second}, disks: []msg.NodeID{1000},
			group: []msg.NodeID{1, 101, 201}, term: time.Second,
		},
	} {
		t.Run(row.name, func(t *testing.T) {
			in := base
			in.Replica = row.tune
			for _, warmup := range []bool{false, true} {
				cfg := row.in.Server(row.node, in, warmup)
				var got []msg.NodeID
				for id := range cfg.Disks {
					got = append(got, id)
				}
				slices.Sort(got)
				if !slices.Equal(got, row.disks) {
					t.Errorf("allocates from %v, want %v", got, row.disks)
				}
				if !slices.Equal(cfg.FenceDisks, row.in.Disks) {
					t.Errorf("fences %v, want every disk %v", cfg.FenceDisks, row.in.Disks)
				}
				switch {
				case row.owner == nil && cfg.PlaceOwner != nil:
					t.Error("a lone authority serves a placement")
				case row.owner != nil:
					for _, p := range paths {
						if got, want := cfg.PlaceOwner(p), row.owner(p); got != want {
							t.Errorf("PlaceOwner(%s) = %v, want %v", p, got, want)
						}
					}
				}
				if row.group == nil {
					if cfg.Replica != nil {
						t.Errorf("a lone server negotiates: %+v", *cfg.Replica)
					}
					continue
				}
				want := replica.Config{Self: row.node, Group: row.group, LeaseTerm: row.term,
					Bound: base.Core.Bound, RetryInterval: base.Core.RetryInterval, Warmup: warmup}
				if rc := cfg.Replica; rc == nil || rc.Self != want.Self || !slices.Equal(rc.Group, want.Group) ||
					rc.LeaseTerm != want.LeaseTerm || rc.Bound != want.Bound ||
					rc.RetryInterval != want.RetryInterval || rc.Warmup != want.Warmup {
					t.Errorf("replica config %+v, want %+v", rc, want)
				}
			}

			auths, place := row.in.Client()
			if len(auths) != len(row.in.Authorities) {
				t.Fatalf("client faces %d authorities, want %d", len(auths), len(row.in.Authorities))
			}
			for i, a := range auths {
				if want := row.in.Authorities[i]; a.ID != want.ID || !slices.Equal(a.Group, want.Group) {
					t.Errorf("client authority %d = %+v, want %v %v", i, a, want.ID, want.Group)
				}
			}
			if (place == nil) != (row.owner == nil) {
				t.Fatalf("client placement %v, want one iff the servers have one", place != nil)
			}
			for _, p := range paths {
				if place == nil {
					break
				}
				idx, ok := place(p)
				got := msg.None
				if ok {
					got = auths[idx].ID
				}
				if want := row.owner(p); got != want {
					t.Errorf("client routes %s to %v, its server to %v", p, got, want)
				}
			}
		})
	}
}

// TestBothFabricsAssembleAlike: a simulated installation and live server
// nodes built from the same two-shard description route every path alike
// and fence the same disks, and each fabric warms a replica member up
// when it should: the simulator on a restart alone, a live node always.
func TestBothFabricsAssembleAlike(t *testing.T) {
	opts := cluster.DefaultOptions()
	opts.Shards, opts.Disks = 2, 1
	opts.Placement = shard.Subtree{Prefixes: map[string]int{"/s0": 0, "/s1": 1}}
	cl := cluster.New(opts)

	topo := rpcnet.Topology{Placement: opts.Placement, Disks: map[msg.NodeID]string{},
		Servers: map[msg.NodeID]string{cluster.ServerID(1): rpcnet.Loopback(), cluster.ServerID(0): rpcnet.Loopback()}}
	for _, d := range cl.Disks {
		topo.Disks[d.ID()] = rpcnet.Loopback()
	}
	for si, sh := range cl.Shards {
		stopo := topo
		stopo.Server, stopo.ServerAddr = sh.ID, rpcnet.Loopback()
		sn, err := rpcnet.StartServerNode(rpcnet.NodeSpec{ID: sh.ID, Topo: stopo},
			server.Config{Core: opts.Core, Disks: sh.Disks})
		if err != nil {
			t.Fatal(err)
		}
		live, sim := sn.Srv.Config(), sh.Server.Config()
		sn.Close()
		for _, p := range []string{"/s0/x", "/s1/x", "/nowhere"} {
			if l, s := live.PlaceOwner(p), sim.PlaceOwner(p); l != s {
				t.Errorf("shard %d routes %s to %v live, %v simulated", si, p, l, s)
			}
		}
		if !slices.Equal(live.FenceDisks, sim.FenceDisks) || len(sim.FenceDisks) != len(cl.Disks) {
			t.Errorf("shard %d fences %v live, %v simulated; want all %d disks",
				si, live.FenceDisks, sim.FenceDisks, len(cl.Disks))
		}
	}

	opts = cluster.DefaultOptions()
	opts.Replicas = 3
	cl = cluster.New(opts)
	sh := &cl.Shards[0]
	if rc := sh.Replicas[1].Config().Replica; rc == nil || rc.Warmup {
		t.Errorf("simulated member at first boot: %+v, want no warm-up", rc)
	}
	cl.CrashReplica(0, 1)
	cl.RestartReplica(0, 1)
	if rc := sh.Replicas[1].Config().Replica; rc == nil || !rc.Warmup {
		t.Errorf("simulated member after a restart: %+v, want a warm-up", rc)
	}
	topo = rpcnet.Topology{Server: sh.Group[1], ServerAddr: rpcnet.Loopback(),
		Servers:       map[msg.NodeID]string{},
		ReplicaGroups: map[msg.NodeID][]msg.NodeID{sh.ID: sh.Group}}
	for _, m := range sh.Group {
		topo.Servers[m] = rpcnet.Loopback()
	}
	sn, err := rpcnet.StartServerNode(rpcnet.NodeSpec{ID: sh.Group[1], Topo: topo}, server.Config{Core: opts.Core})
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	if rc := sn.Srv.Config().Replica; rc == nil || !rc.Warmup || !slices.Equal(rc.Group, sh.Group) {
		t.Errorf("live member at first boot: %+v, want a warm-up in group %v", rc, sh.Group)
	}
}
