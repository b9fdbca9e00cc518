package shard

import (
	"slices"

	"repro/internal/client"
	"repro/internal/msg"
	"repro/internal/replica"
	"repro/internal/server"
)

// Installation is what every node of an installation must agree on. Both
// fabrics configure their nodes from one, with Server and Client: the
// simulator (internal/cluster) and the live nodes, which read theirs off
// their rpcnet.Topology (DESIGN §14).
type Installation struct {
	// Authorities lists the lease authorities in placement order.
	Authorities []Authority
	// Disks is every SAN disk, in ID order. Every authority fences on all
	// of them: a handed-off file keeps its blocks where they were
	// allocated (DESIGN §25).
	Disks []msg.NodeID
	// Placement maps a path to an authority's index. Nil means Hash over
	// several authorities, and no placement for one: a lone server is not
	// a shard of anything.
	Placement Placement
}

// Authority is one lease authority: its ID and replica group, as a client
// knows it, and the disks it allocates from, with their capacities. No two
// authorities share a disk; a live node knows only its own authority's.
type Authority struct {
	client.Authority
	Disks map[msg.NodeID]uint64
}

// placement is the map in force.
func (in Installation) placement() Placement {
	if in.Placement == nil && len(in.Authorities) > 1 {
		return Hash{N: len(in.Authorities)}
	}
	return in.Placement
}

// Server completes base into the configuration of node id, an authority
// or a member of its group: the disks it allocates from, the fence set,
// PlaceOwner (nil without a placement) and, in a group, the negotiation's
// configuration, whose lease term alone base.Replica may set. warmup is
// replica.Config.Warmup: the simulator sets it on a restart, a live node
// always, since a process cannot tell its first boot from a restart
// (DESIGN §15.2).
func (in Installation) Server(id msg.NodeID, base server.Config, warmup bool) server.Config {
	cfg := base
	cfg.FenceDisks = in.Disks
	cfg.PlaceOwner = nil
	if p := in.placement(); p != nil {
		cfg.PlaceOwner = func(path string) msg.NodeID {
			i, ok := p.Owner(path)
			if !ok || i < 0 || i >= len(in.Authorities) {
				return msg.None
			}
			return in.Authorities[i].ID
		}
	}
	cfg.Replica = nil
	for _, a := range in.Authorities {
		if a.ID != id && !slices.Contains(a.Group, id) {
			continue
		}
		cfg.Disks = a.Disks
		if len(a.Group) == 0 {
			break
		}
		rc := replica.Config{Self: id, Group: a.Group, LeaseTerm: replica.DefaultLeaseTerm,
			Bound: base.Core.Bound, RetryInterval: base.Core.RetryInterval, Warmup: warmup}
		if base.Replica != nil && base.Replica.LeaseTerm != 0 {
			rc.LeaseTerm = base.Replica.LeaseTerm
		}
		cfg.Replica = &rc
		break
	}
	return cfg
}

// Client returns a client node's authorities, in placement order, and its
// routing map (nil: every path to the first).
func (in Installation) Client() ([]client.Authority, func(path string) (int, bool)) {
	auths := make([]client.Authority, len(in.Authorities))
	for i, a := range in.Authorities {
		auths[i] = a.Authority
	}
	var place func(path string) (int, bool)
	if p := in.placement(); p != nil {
		place = p.Owner
	}
	return auths, place
}
