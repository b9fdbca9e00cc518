package blockstore

import (
	"sort"

	"repro/internal/msg"
)

// Fence is one entry of a fence table: Authority refuses Target's I/O
// stamped with an epoch below Below.
type Fence struct {
	Authority msg.NodeID
	Target    msg.NodeID
	Below     msg.Epoch
}

type fencePair struct{ authority, target msg.NodeID }

// Fences is a disk's fence table: one floor per (authority, target)
// pair, which only rises. The zero value is an empty table. Mem and File
// keep one each; File also journals every raise (fence.wal).
type Fences struct {
	floor map[fencePair]msg.Epoch
}

// Floor returns the lowest epoch at which authority admits target's I/O
// (0: unfenced).
func (t *Fences) Floor(authority, target msg.NodeID) msg.Epoch {
	return t.floor[fencePair{authority, target}]
}

// Top returns the highest floor authority has raised against any target.
func (t *Fences) Top(authority msg.NodeID) msg.Epoch {
	var top msg.Epoch
	for p, below := range t.floor {
		if p.authority == authority {
			top = max(top, below)
		}
	}
	return top
}

// rises reports whether f would raise its pair's floor.
func (t *Fences) rises(f Fence) bool { return f.Below > t.Floor(f.Authority, f.Target) }

// raise lifts f's pair to f.Below, unless it is already as high.
func (t *Fences) raise(f Fence) {
	if !t.rises(f) {
		return
	}
	if t.floor == nil {
		t.floor = make(map[fencePair]msg.Epoch)
	}
	t.floor[fencePair{f.Authority, f.Target}] = f.Below
}

// All returns every fence in the table, by authority, then target.
func (t *Fences) All() []Fence {
	out := make([]Fence, 0, len(t.floor))
	for p, below := range t.floor {
		out = append(out, Fence{Authority: p.authority, Target: p.target, Below: below})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Authority != out[j].Authority {
			return out[i].Authority < out[j].Authority
		}
		return out[i].Target < out[j].Target
	})
	return out
}
