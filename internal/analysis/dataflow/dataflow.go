// Package dataflow is a forward abstract-interpretation engine over the
// CFGs of internal/analysis/cfg: a client supplies an abstract state and
// a per-node transfer function, and Forward computes the fixpoint of
// block input states by worklist iteration in reverse postorder.
//
// The engine is deliberately small and generic — it knows nothing about
// buffers or locks. A client guarantees termination by making its state
// a finite join-semilattice: Join must be monotone (the result covers
// both inputs) and the state space finite (bufown uses bitsets over two
// buffer facts and over reference counts clamped at 3). A safety cap
// on iterations turns a non-converging client into a loud error instead
// of a hung lint run.
package dataflow

import (
	"fmt"
	"go/ast"

	"repro/internal/analysis/cfg"
)

// State is one abstract program state. Implementations are mutable;
// the engine clones before mutating, so clients can use plain maps.
type State interface {
	// Clone returns an independent deep copy.
	Clone() State
	// JoinInto merges other into the receiver, returning whether the
	// receiver changed. Must be monotone: the result covers both.
	JoinInto(other State) (changed bool)
}

// Client supplies the problem-specific semantics.
type Client interface {
	// Transfer applies one CFG node's effect to s, mutating it.
	// The report flag distinguishes the fixpoint phase (false: facts
	// only) from the final reporting pass (true: diagnostics allowed);
	// clients that report during fixpoint would emit duplicates.
	Transfer(n ast.Node, s State, report bool)
}

// maxPasses bounds fixpoint iteration: state lattices here are tiny, so
// honest clients converge in a handful of passes; hitting the cap means
// a non-monotone Join and deserves a loud failure.
const maxPasses = 1000

// Result carries the converged block input states.
type Result struct {
	// In[b.Index] is the join of all incoming edge states of block b
	// (nil for unreachable blocks).
	In []State
}

// Forward runs the fixpoint and returns per-block input states.
func Forward(g *cfg.Graph, entry State, c Client) (*Result, error) {
	res := &Result{In: make([]State, len(g.Blocks))}
	res.In[g.Entry.Index] = entry.Clone()

	rpo := g.ReversePostorder()
	order := make(map[*cfg.Block]int, len(rpo))
	for i, b := range rpo {
		order[b] = i
	}

	// worklist keyed by RPO position for deterministic iteration.
	inList := make([]bool, len(rpo))
	list := []int{0}
	inList[0] = true

	passes := 0
	for len(list) > 0 {
		if passes++; passes > maxPasses*len(rpo) {
			return nil, fmt.Errorf("dataflow: no fixpoint after %d visits (non-monotone join?)", passes)
		}
		// Pop the lowest RPO index for near-topological processing.
		best := 0
		for i := 1; i < len(list); i++ {
			if list[i] < list[best] {
				best = i
			}
		}
		idx := list[best]
		list[best] = list[len(list)-1]
		list = list[:len(list)-1]
		inList[idx] = false

		b := rpo[idx]
		in := res.In[b.Index]
		if in == nil {
			continue
		}
		out := in.Clone()
		for _, n := range b.Nodes {
			c.Transfer(n, out, false)
		}
		for _, succ := range b.Succs {
			target := res.In[succ.Index]
			changed := false
			if target == nil {
				res.In[succ.Index] = out.Clone()
				changed = true
			} else {
				changed = target.JoinInto(out)
			}
			if changed {
				if pos, ok := order[succ]; ok && !inList[pos] {
					list = append(list, pos)
					inList[pos] = true
				}
			}
		}
	}
	return res, nil
}

// Report runs one final pass over every reachable block with reporting
// enabled, feeding each block its converged input state. Diagnostics
// the client emits in this pass are therefore grounded in fixpoint
// facts and appear exactly once per site.
func Report(g *cfg.Graph, res *Result, c Client) {
	for _, b := range g.ReversePostorder() {
		in := res.In[b.Index]
		if in == nil {
			continue
		}
		s := in.Clone()
		for _, n := range b.Nodes {
			c.Transfer(n, s, true)
		}
	}
}
