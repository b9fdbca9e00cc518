// Package trace is the observability substrate for the lease protocol: a
// low-overhead, concurrency-safe event bus that records every
// lease-lifecycle event — phase transitions, opportunistic renewals with
// their tC1, keep-alives, NACKs, steal timers arming and firing, demand
// revocations, flush/quiesce start and drain, and fence operations — each
// stamped with the emitting node's ID, its registration epoch, and its
// own clock reading.
//
// The paper's headline claim is that normal operation costs zero
// messages, zero server memory, and zero server computation (§3); the
// trace stream turns that claim from an end-of-run counter comparison
// into a per-event assertion ("the server emitted no lease event during
// steady state", "the client's lease expired strictly before the
// server's steal") that holds on both the deterministic simulator and
// the live TCP transport. See Stream for the assertion helpers.
//
// Design notes:
//
//   - A Tracer is a fan-out point with a global sequence number. Within
//     one process the sequence totally orders events across nodes — on
//     the simulator that order is deterministic; on the live transport
//     it is assignment order under the tracer's lock, which is a valid
//     linearization because every event is emitted by the node it
//     describes at the moment it happens.
//   - Event timestamps are LOCAL clock readings (sim.Time), never a
//     shared clock: the protocol itself has no synchronized time, and
//     the trace must not pretend otherwise. Cross-node ordering comes
//     from Seq alone.
//   - A nil *Tracer is valid and silently discards events, so protocol
//     code traces unconditionally without nil checks at every call site.
package trace

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/msg"
	"repro/internal/sim"
)

// Type classifies a lease-lifecycle event.
type Type uint8

const (
	// EvPhase: a client lease phase transition (From → To), covering
	// valid→renewal→suspect→flush→expired and the rejoin resets.
	EvPhase Type = iota + 1
	// EvRenew: an opportunistic renewal (§3.1) — an ACK arrived for a
	// message FIRST sent at TC1; the lease now runs [TC1, TC1+τ).
	EvRenew
	// EvKeepAlive: the client sent a NULL keep-alive (phase 2).
	EvKeepAlive
	// EvNACK: the client received a negative acknowledgment (§3.3).
	EvNACK
	// EvNACKSent: the server refused service to Peer.
	EvNACKSent
	// EvStealArmed: the authority observed a delivery failure for Peer
	// and armed the τ(1+ε) steal timer (the first lease state the server
	// has held for this client).
	EvStealArmed
	// EvStealFired: Peer's locks were stolen — the timer elapsed, the
	// client's own rejoin made the steal safe early, or a baseline
	// policy's recovery ran (Note names the path).
	EvStealFired
	// EvDemand: the server (re)sent a lock demand for Ino to Peer.
	EvDemand
	// EvDemandRecv: the client received a demand for Ino from Peer.
	EvDemandRecv
	// EvDemandFailed: a demand to Peer went unacknowledged through its
	// retries — the delivery error that activates the recovery policy.
	EvDemandFailed
	// EvQuiesce: the client stopped admitting new operations (phase 3).
	EvQuiesce
	// EvFlushStart: a flush of dirty data began (phase 4, or demand
	// compliance for one object — Note distinguishes).
	EvFlushStart
	// EvFlushDone: the flush drained to the SAN.
	EvFlushDone
	// EvExpire: the client's lease expired; cache and locks are invalid.
	EvExpire
	// EvFence: the server raised its SAN fence against Peer to Epoch: the
	// disks refuse Peer's I/O under this authority stamped below it.
	EvFence
	// EvRejoin: the server granted Peer a fresh registration epoch.
	EvRejoin
	// EvReassert: the server accepted Peer's lock reassertion (§6).
	EvReassert
	// EvTransport: a live-transport diagnostic (dial/read failure,
	// accepted connection); Note holds the detail.
	EvTransport
	// EvDisk: a disk-media durability event. Note names the occurrence:
	// "recovered" (open-time recovery pass, with journal/verified/torn
	// counts), "fence-replay" (a fence for Peer restored from the
	// journal), "torn" (Block failed its checksum during recovery),
	// "torn-read" (a torn Block was asked for and refused), and
	// "media-error" (an I/O failure answering for Block).
	EvDisk
	// EvPrefetch: the client detected a sequential scan on Ino and
	// issued a read-ahead batch starting at file-block Block; Note
	// carries the batch width ("window=N"). Prefetch is an optimization
	// on top of the data path, never a protocol step: the batch runs
	// under the same lock/lease gating as a demand read.
	EvPrefetch
	// EvShardHandoff: a source shard began migrating Ino to Peer for a
	// cross-shard rename; Note carries the durable handoff id ("hid=N").
	EvShardHandoff
	// EvShardInstall: a destination shard installed an object received
	// from Peer; Ino is the fresh local inode, Note the handoff id.
	EvShardInstall
	// EvShardDone: the source shard completed a handoff — the object now
	// lives at Peer and the local copy is unlinked; Note the handoff id.
	EvShardDone
	// EvShardAbort: the destination refused a handoff and the source
	// shard kept ownership of Ino; Note carries the handoff id and errno.
	EvShardAbort
	// EvReplicaBallotOpen: a replica opened a PaxosLease ballot (Epoch
	// carries the ballot number) and sent prepares to the group.
	EvReplicaBallotOpen
	// EvReplicaPromise: an acceptor promised ballot Epoch to Peer; Note
	// is "accepted=nK holder" when the promise carried live accepted
	// state, "reject" when the ballot was refused.
	EvReplicaPromise
	// EvReplicaPropose: a candidate with a promised majority proposed
	// itself as lease holder under ballot Epoch.
	EvReplicaPropose
	// EvReplicaLeaseGranted: a majority accepted — the replica holds the
	// authority lease under ballot Epoch. TC1 is the conservative lease
	// start (captured before the prepare was sent); the lease runs
	// [TC1, TC1+term) on the holder's clock. Note is "renew" for
	// extensions of a lease already held.
	EvReplicaLeaseGranted
	// EvReplicaStepdown: the holder's lease lapsed without a successful
	// extension (or it observed a higher ballot) and it stopped acting as
	// the authority.
	EvReplicaStepdown
	// EvReplicaTakeover: a replica activated as the shard's lease
	// authority and entered service; Note is "cold" for a first boot with
	// no prior client registrations, "grace" when the activation opened a
	// §6 grace-period recovery window, and "grace-end" marks the same
	// node leaving that window.
	EvReplicaTakeover
	// EvCancel: a node gave up request Req unanswered, its callback told
	// the request is dead (a client's lease expired). Peer is whom it was
	// sent to: the server for a control call, the disk for a SAN call
	// (Note "san"). A node cancels its requests in the order it issued
	// them, so within one table Req ascends.
	EvCancel
)

var typeNames = [...]string{
	EvPhase:        "phase",
	EvRenew:        "renew",
	EvKeepAlive:    "keepalive",
	EvNACK:         "nack",
	EvNACKSent:     "nack-sent",
	EvStealArmed:   "steal-armed",
	EvStealFired:   "steal-fired",
	EvDemand:       "demand",
	EvDemandRecv:   "demand-recv",
	EvDemandFailed: "demand-failed",
	EvQuiesce:      "quiesce",
	EvFlushStart:   "flush-start",
	EvFlushDone:    "flush-done",
	EvExpire:       "expire",
	EvFence:        "fence",
	EvRejoin:       "rejoin",
	EvReassert:     "reassert",
	EvTransport:    "transport",
	EvDisk:         "disk",
	EvPrefetch:     "prefetch",
	EvShardHandoff: "shard-handoff",
	EvShardInstall: "shard-install",
	EvShardDone:    "shard-done",
	EvShardAbort:   "shard-abort",

	EvReplicaBallotOpen:   "replica-ballot-open",
	EvReplicaPromise:      "replica-promise",
	EvReplicaPropose:      "replica-propose",
	EvReplicaLeaseGranted: "replica-lease-granted",
	EvReplicaStepdown:     "replica-stepdown",
	EvReplicaTakeover:     "replica-takeover",
	EvCancel:              "cancel",
}

func (t Type) String() string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// MarshalJSON renders the type as its name, keeping JSONL streams
// readable and stable across taxonomy reordering.
func (t Type) MarshalJSON() ([]byte, error) {
	return []byte(`"` + t.String() + `"`), nil
}

// UnmarshalJSON parses a type name back to its value, so JSONL streams
// written by one process (a crashed disk node, a tankd run) can be
// decoded and asserted on by another.
func (t *Type) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("trace: event type %s is not a string", b)
	}
	name := string(b[1 : len(b)-1])
	for v, n := range typeNames {
		if n == name && n != "" {
			*t = Type(v)
			return nil
		}
	}
	return fmt.Errorf("trace: unknown event type %q", name)
}

// Event is one lease-lifecycle occurrence. Node, Time, and Epoch are the
// mandatory stamp (who, when on whose clock, under which registration);
// the remaining fields are type-specific and zero when inapplicable.
type Event struct {
	// Seq is the tracer-assigned global sequence number: the only
	// cross-node order in the stream.
	Seq uint64 `json:"seq"`
	// Type classifies the event.
	Type Type `json:"type"`
	// Node is the participant the event happened AT (not necessarily the
	// one it is about — see Peer).
	Node msg.NodeID `json:"node"`
	// Time is Node's own clock reading: deterministic simulated time
	// under internal/sim, wall-clock nanoseconds under internal/rpcnet.
	Time sim.Time `json:"t"`
	// Epoch is Node's registration epoch at emission (0 = unregistered
	// or not applicable); for EvFence, the epoch the fence refuses below,
	// and for a disk's refusal, the epoch the refused request carried.
	Epoch msg.Epoch `json:"epoch,omitempty"`
	// Peer is the other party, when the event concerns one (the suspect
	// client for server events, the server for client events).
	Peer msg.NodeID `json:"peer,omitempty"`
	// Ino is the object, for demand and per-object flush events.
	Ino msg.ObjectID `json:"ino,omitempty"`
	// Block is the disk block, for EvDisk media events.
	Block uint64 `json:"block,omitempty"`
	// Req is the request, for EvCancel.
	Req msg.ReqID `json:"req,omitempty"`
	// From and To are phase names for EvPhase.
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// TC1 is the renewal's first-send time (EvRenew), on Node's clock.
	TC1 sim.Time `json:"tc1,omitempty"`
	// Note carries free-form detail ("retry", "rejoin", policy names,
	// transport diagnostics).
	Note string `json:"note,omitempty"`
}

// String renders the event compactly for logs.
func (e Event) String() string {
	s := fmt.Sprintf("#%d %v %s t=%v", e.Seq, e.Node, e.Type, e.Time)
	if e.Epoch != 0 {
		s += fmt.Sprintf(" epoch=%d", e.Epoch)
	}
	if e.Peer != msg.None {
		s += fmt.Sprintf(" peer=%v", e.Peer)
	}
	if e.Ino != 0 {
		s += fmt.Sprintf(" %v", e.Ino)
	}
	if e.Req != 0 {
		s += fmt.Sprintf(" req=%d", e.Req)
	}
	if e.Type == EvDisk && e.Block != 0 {
		s += fmt.Sprintf(" block=%d", e.Block)
	}
	if e.Type == EvPhase {
		s += fmt.Sprintf(" %s→%s", e.From, e.To)
	}
	if e.Type == EvRenew {
		s += fmt.Sprintf(" tC1=%v", e.TC1)
	}
	if e.Note != "" {
		s += " (" + e.Note + ")"
	}
	return s
}

// Sink consumes events. Record is called under the tracer's emission
// lock, in sequence order; implementations must not call back into the
// tracer. Sinks shared between tracers must synchronize themselves.
type Sink interface {
	Record(Event)
}

// SinkFunc adapts a function to Sink.
type SinkFunc func(Event)

// Record calls f.
func (f SinkFunc) Record(e Event) { f(e) }

// Tracer is the event bus: it assigns the global sequence and fans each
// event out to the attached sinks. All methods are safe for concurrent
// use from any goroutine, and all are no-ops on a nil receiver, so a
// component holding an optional tracer never branches.
type Tracer struct {
	mu    sync.Mutex
	seq   uint64
	sinks []Sink
	// active mirrors len(sinks) > 0 without taking the lock, so Emit on
	// a sink-less tracer is one atomic load.
	active atomic.Bool
}

// New creates a tracer fanning out to the given sinks.
func New(sinks ...Sink) *Tracer {
	t := &Tracer{sinks: sinks}
	t.active.Store(len(sinks) > 0)
	return t
}

// Attach adds a sink. Events emitted before Attach are not replayed.
func (t *Tracer) Attach(s Sink) {
	if t == nil || s == nil {
		return
	}
	t.mu.Lock()
	t.sinks = append(t.sinks, s)
	t.active.Store(true)
	t.mu.Unlock()
}

// Enabled reports whether any sink is attached. Callers may use it to
// skip expensive event construction; Emit itself is always safe.
func (t *Tracer) Enabled() bool { return t != nil && t.active.Load() }

// Emit stamps e with the next sequence number and delivers it to every
// sink. The caller fills all other fields; Emit never blocks on I/O the
// sinks don't perform themselves.
func (t *Tracer) Emit(e Event) {
	if t == nil || !t.active.Load() {
		return
	}
	t.mu.Lock()
	t.seq++
	e.Seq = t.seq
	for _, s := range t.sinks {
		s.Record(e)
	}
	t.mu.Unlock()
}
