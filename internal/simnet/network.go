// Package simnet simulates the two datagram networks of a Storage Tank
// installation: the general-purpose control network (clients ↔ servers)
// and the storage-area network (clients/servers ↔ disks). A Network
// delivers messages through the discrete-event scheduler with configurable
// latency and loss, and supports the failure vocabulary of the paper:
// directed (asymmetric) link blocks, symmetric partitions, node isolation,
// and node crashes.
package simnet

import (
	"fmt"
	"time"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Handler receives delivered messages. Handlers run on the scheduler
// goroutine; they may send messages and schedule events but must not block.
type Handler func(env msg.Envelope)

// Config sets a network's delivery characteristics.
type Config struct {
	// Name labels the network in traces ("control", "san").
	Name string
	// DelayMin/DelayMax bound the uniformly distributed one-way latency.
	DelayMin, DelayMax time.Duration
	// LossProb is the probability an individual datagram is silently
	// dropped (in addition to partition/crash drops).
	LossProb float64
}

// DefaultControlConfig models a commodity IP control network.
func DefaultControlConfig() Config {
	return Config{Name: "control", DelayMin: 200 * time.Microsecond, DelayMax: 800 * time.Microsecond}
}

// DefaultSANConfig models a low-latency storage fabric.
func DefaultSANConfig() Config {
	return Config{Name: "san", DelayMin: 50 * time.Microsecond, DelayMax: 150 * time.Microsecond}
}

// Event records one message outcome for observers.
type Event struct {
	At        sim.Time
	Env       msg.Envelope
	Delivered bool
	Reason    DropReason
}

// DropReason explains why a message was not delivered.
type DropReason uint8

const (
	Delivered DropReason = iota
	DropLoss
	DropBlocked
	DropCrashed
	DropNoSuchNode
)

func (r DropReason) String() string {
	switch r {
	case Delivered:
		return "delivered"
	case DropLoss:
		return "loss"
	case DropBlocked:
		return "blocked"
	case DropCrashed:
		return "crashed"
	case DropNoSuchNode:
		return "no-such-node"
	}
	return fmt.Sprintf("DropReason(%d)", uint8(r))
}

// Note renders the reason as the canonical trace.EvTransport note
// ("drop:blocked", "drop:loss", ...). Both this simulated fabric and the
// live fault injector (internal/faultnet via internal/rpcnet) stamp
// dropped messages with this note, so a fault plan executed on either
// produces the same drop taxonomy in traces.
func (r DropReason) Note() string { return "drop:" + r.String() }

type edge struct{ from, to msg.NodeID }

// Network is one simulated datagram fabric.
type Network struct {
	cfg     Config
	sched   *sim.Scheduler
	nodes   map[msg.NodeID]Handler
	blocked map[edge]bool
	crashed map[msg.NodeID]bool
	// Observer, if set, sees every send attempt and its outcome. The
	// cluster uses it for message/byte accounting.
	Observer func(Event)
	// tracer, if set, receives an EvTransport event for every dropped
	// message (Note = DropReason.Note()), matching the live transport's
	// fault injector so sim and live traces are comparable.
	tracer *trace.Tracer

	sent, delivered, dropped uint64
}

// New creates a network on the given scheduler.
func New(s *sim.Scheduler, cfg Config) *Network {
	if cfg.DelayMax < cfg.DelayMin {
		panic("simnet: DelayMax < DelayMin")
	}
	return &Network{
		cfg:     cfg,
		sched:   s,
		nodes:   make(map[msg.NodeID]Handler),
		blocked: make(map[edge]bool),
		crashed: make(map[msg.NodeID]bool),
	}
}

// Name returns the configured network name.
func (n *Network) Name() string { return n.cfg.Name }

// SetTracer attaches a trace bus: every dropped message is emitted as an
// EvTransport event stamped with the sender, the intended receiver, and
// the drop reason's canonical note.
func (n *Network) SetTracer(tr *trace.Tracer) { n.tracer = tr }

// SetLossProb changes the network's random-loss probability at runtime —
// the same knob as faultnet.Faults.SetLossProb, so one fault plan runs
// against both fabrics.
func (n *Network) SetLossProb(p float64) { n.cfg.LossProb = p }

// traceDrop reports a dropped message to the trace bus, if any.
func (n *Network) traceDrop(env msg.Envelope, r DropReason) {
	if !n.tracer.Enabled() {
		return
	}
	n.tracer.Emit(trace.Event{
		Type: trace.EvTransport,
		Node: env.From,
		Time: n.sched.Now(),
		Peer: env.To,
		Note: r.Note(),
	})
}

// Attach registers a node's receive handler. Re-attaching replaces the
// handler (used when a crashed node restarts with fresh state).
func (n *Network) Attach(id msg.NodeID, h Handler) {
	if id == msg.None {
		panic("simnet: attaching NodeID 0")
	}
	n.nodes[id] = h
}

// Detach removes a node entirely.
func (n *Network) Detach(id msg.NodeID) { delete(n.nodes, id) }

// Send transmits a datagram. Delivery (or silent drop) is decided per the
// current partition/crash/loss state at send time, matching a real
// datagram fabric where in-flight packets of a just-partitioned link are
// lost. Send never blocks and gives no feedback to the sender.
func (n *Network) Send(from, to msg.NodeID, payload msg.Message) {
	n.sent++
	env := msg.Envelope{From: from, To: to, Payload: payload}
	drop := func(r DropReason) {
		n.dropped++
		n.traceDrop(env, r)
		if n.Observer != nil {
			n.Observer(Event{At: n.sched.Now(), Env: env, Reason: r})
		}
	}
	switch {
	case n.crashed[from] || n.crashed[to]:
		drop(DropCrashed)
		return
	case n.blocked[edge{from, to}]:
		drop(DropBlocked)
		return
	case n.nodes[to] == nil:
		drop(DropNoSuchNode)
		return
	case n.cfg.LossProb > 0 && n.sched.Rand().Float64() < n.cfg.LossProb:
		drop(DropLoss)
		return
	}
	n.sched.After(n.delay(), func() {
		// Re-check crash at delivery time: a node that died while the
		// datagram was in flight does not receive it.
		if n.crashed[to] || n.nodes[to] == nil {
			n.dropped++
			n.traceDrop(env, DropCrashed)
			if n.Observer != nil {
				n.Observer(Event{At: n.sched.Now(), Env: env, Reason: DropCrashed})
			}
			return
		}
		n.delivered++
		if n.Observer != nil {
			n.Observer(Event{At: n.sched.Now(), Env: env, Delivered: true})
		}
		n.nodes[to](env)
		// The handler was given the sender's own message, so a payload the
		// sender lent is the fabric's to return only now.
		msg.EndLoan(env.Payload)
	})
}

func (n *Network) delay() time.Duration {
	span := n.cfg.DelayMax - n.cfg.DelayMin
	if span <= 0 {
		return n.cfg.DelayMin
	}
	return n.cfg.DelayMin + time.Duration(n.sched.Rand().Int63n(int64(span)))
}

// Counts returns (sent, delivered, dropped) totals.
func (n *Network) Counts() (sent, delivered, dropped uint64) {
	return n.sent, n.delivered, n.dropped
}
