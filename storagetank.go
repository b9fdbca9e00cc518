// Package storagetank is a from-scratch reproduction of "Safe Caching in
// a Distributed File System for Network Attached Storage" (Burns, Rees,
// Long — IPPS 2000): the IBM Storage Tank lease-based safety protocol,
// together with every substrate it needs — a SAN-attached block-storage
// fabric, a metadata/lock server, a write-back caching client, a
// deterministic two-network simulator, a live TCP transport, and the
// comparison baselines (V-style per-object leases, Frangipani-style
// heartbeats, fencing-only recovery, naive lock stealing, NFS polling,
// GFS dlocks).
//
// Clients cache two things under the lease: file data under data locks,
// and the namespace — names, known absences, listings, attributes — under
// shared directory locks that arrive on the replies to the requests they
// cover (DESIGN.md §18). A lookup, stat or readdir of something seen
// before sends nothing; a mutation in a directory other clients have
// cached first takes the directory's lock back from each of them, by
// demand or by waiting out an unreachable one's lease.
//
// The package re-exports the pieces a downstream user composes:
//
//   - The unified With* option vocabulary (options.go): one set of
//     knobs that configures a simulated Cluster (NewClusterWith) and live
//     TCP nodes (StartServer / StartDisk / StartClient) alike.
//   - Cluster: a complete simulated installation (Fig 1) for
//     deterministic experiments and tests — one metadata server, or with
//     WithShards and WithReplicas a cluster of them: the namespace
//     partitioned across independent lease authorities by a placement
//     map, one lease per (client, server) pair (§4), server-to-server
//     handoff for renames that cross authorities (DESIGN.md §14).
//   - Config: the protocol parameters (τ, ε, phase boundaries).
//   - Policy and the named baselines for comparative runs.
//   - Experiments: the runners that regenerate every figure and table of
//     the paper's argument (DESIGN.md §4, EXPERIMENTS.md).
//
// For a live deployment, see cmd/tankd and cmd/tankcli, built on
// internal/rpcnet; the protocol code is identical in both worlds.
package storagetank

import (
	"io"

	"repro/internal/baselines"
	"repro/internal/blockstore"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faultnet"
	"repro/internal/msg"
	"repro/internal/shard"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config is the lease protocol configuration (τ, ε, phases, retries).
type Config = core.Config

// DefaultConfig returns the protocol parameters used throughout the
// reproduction (τ=30s, ε=5%, phases at 0.50/0.70/0.85τ).
func DefaultConfig() Config { return core.DefaultConfig() }

// Phase is the client's position in its lease period (Fig 4).
type Phase = core.Phase

// The four phases plus the boundary states.
const (
	PhaseNone    = core.PhaseNone
	Phase1Valid  = core.Phase1Valid
	Phase2Renew  = core.Phase2Renewal
	Phase3Quiet  = core.Phase3Suspect
	Phase4Flush  = core.Phase4Flush
	PhaseExpired = core.PhaseExpired
)

// Policy selects the lease/recovery/data-path behaviour of a cluster.
type Policy = baselines.Policy

// The named policies the paper compares against.
var (
	StorageTank  = baselines.StorageTank
	Frangipani   = baselines.Frangipani
	VSystem      = baselines.VSystem
	HonorLocks   = baselines.HonorLocks
	NaiveSteal   = baselines.NaiveSteal
	FenceOnly    = baselines.FenceOnly
	FunctionShip = baselines.FunctionShip
	NFSPoll      = baselines.NFSPoll
	GFSDlock     = baselines.GFSDlock
	AllPolicies  = baselines.All
)

// Cluster is a complete simulated installation: scheduler, rate-skewed
// clocks, control network, SAN, disks, one or more servers, clients, and
// a consistency oracle per server.
type Cluster = cluster.Cluster

// BlockSize is the data block size used throughout (4 KiB).
const BlockSize = cluster.BlockSize

// Media is the storage a SAN disk serves from: the durable half of the
// paper's safety argument. The in-memory implementation backs the
// simulator; the file-backed implementation (OpenFileMedia) persists
// block data, version stamps, and the fence table across disk-node
// restarts, detects torn writes by per-block CRC32C trailers, and
// journals fence operations so they are fsync-durable before they are
// acknowledged.
type Media = blockstore.Media

// MediaOptions configures a file-backed media store.
type MediaOptions = blockstore.Options

// MediaBlockWrite is one block of a vectored media write (Media.WriteV).
// File-backed media commit a whole batch under one fsync pair.
type MediaBlockWrite = blockstore.BlockWrite

// MediaRecovery reports what a file-backed store's open-time recovery
// pass found (journal records replayed, blocks verified, torn blocks).
type MediaRecovery = blockstore.RecoveryReport

// ErrTornBlock marks a read refused because the block's checksum does
// not match its trailer: a write torn by a crash, detected rather than
// served. Test with errors.Is.
var ErrTornBlock = blockstore.ErrTorn

// NewMemMedia returns the in-memory media a disk uses by default.
func NewMemMedia() Media { return blockstore.NewMem() }

// OpenFileMedia creates or recovers a file-backed media store in dir.
// Pass it to a live disk node with rpcnet.WithMedia (or run tankd with
// -data-dir). Inspect the recovery pass with Recovery().
func OpenFileMedia(dir string, opts MediaOptions) (Media, error) {
	return blockstore.Open(dir, opts)
}

// WorkloadConfig shapes synthetic client activity.
type WorkloadConfig = workload.Config

// DefaultWorkload returns a moderately skewed, read-mostly workload.
func DefaultWorkload() WorkloadConfig { return workload.DefaultConfig() }

// NewWorkloadRunner drives one cluster client with generated load.
func NewWorkloadRunner(cl *Cluster, clientIdx int, cfg WorkloadConfig, seed int64) *workload.Runner {
	return workload.NewRunner(cl, clientIdx, cfg, seed)
}

// PopulateWorkload creates the shared file population for runners.
func PopulateWorkload(cl *Cluster, cfg WorkloadConfig) { workload.Populate(cl, cfg) }

// Placement deterministically maps a path to the shard that owns it;
// every client and server of an installation must share one.
type Placement = shard.Placement

// HashPlacement is the default placement: FNV-1a over the full path,
// modulo the shard count — total and statistically balanced.
type HashPlacement = shard.Hash

// SubtreePlacement places paths by longest matching directory prefix —
// the administrator-controlled split ("/home on shard 0").
type SubtreePlacement = shard.Subtree

// Tracer is the lease-lifecycle event bus: attach one to a cluster
// (Options.Tracer) or a live node (rpcnet.WithTracer) and every phase
// transition, renewal, keep-alive, NACK, steal, demand, flush, and fence
// lands in one totally-ordered stream.
type Tracer = trace.Tracer

// TraceEvent is one structured lease-lifecycle event.
type TraceEvent = trace.Event

// TraceStream is an ordered slice of events with assertion helpers
// (Filter, Precedes, PhaseSequence).
type TraceStream = trace.Stream

// TraceRing is a bounded in-memory event sink.
type TraceRing = trace.Ring

// NewTracer creates an event bus fanning out to the given sinks.
func NewTracer(sinks ...trace.Sink) *Tracer { return trace.New(sinks...) }

// NewTraceRing creates an in-memory sink retaining the last n events.
func NewTraceRing(capacity int) *TraceRing { return trace.NewRing(capacity) }

// NewTraceJSONL creates a sink writing each event as one JSON line.
func NewTraceJSONL(w io.Writer) trace.Sink { return trace.NewJSONL(w) }

// NewTraceLogf adapts a printf-style logger into a sink.
func NewTraceLogf(logf func(format string, args ...any)) trace.Sink {
	return trace.NewLogf(logf)
}

// NodeID identifies a participant (server, client, or disk).
type NodeID = msg.NodeID

// Handle names an open file on a client (returned by SyncClient.Open
// and the Cluster conveniences).
type Handle = msg.Handle

// TraceEventType classifies a trace event.
type TraceEventType = trace.Type

// The lease-lifecycle event taxonomy (DESIGN.md §7).
const (
	TracePhase        = trace.EvPhase
	TraceRenew        = trace.EvRenew
	TraceKeepAlive    = trace.EvKeepAlive
	TraceNACK         = trace.EvNACK
	TraceNACKSent     = trace.EvNACKSent
	TraceStealArmed   = trace.EvStealArmed
	TraceStealFired   = trace.EvStealFired
	TraceDemand       = trace.EvDemand
	TraceDemandRecv   = trace.EvDemandRecv
	TraceDemandFailed = trace.EvDemandFailed
	TraceQuiesce      = trace.EvQuiesce
	TraceFlushStart   = trace.EvFlushStart
	TraceFlushDone    = trace.EvFlushDone
	TraceExpire       = trace.EvExpire
	TraceFence        = trace.EvFence
	TraceRejoin       = trace.EvRejoin
	TraceReassert     = trace.EvReassert
	TraceTransport    = trace.EvTransport
	TraceDisk         = trace.EvDisk
	TraceShardHandoff = trace.EvShardHandoff
	TraceShardInstall = trace.EvShardInstall
	TraceShardDone    = trace.EvShardDone
	TraceShardAbort   = trace.EvShardAbort
)

// The replicated-authority event family (DESIGN.md §15): PaxosLease
// ballots among a shard's replica group, authority-lease grants and
// lapses, and takeover (Note "cold", "grace", or "grace-end").
const (
	TraceReplicaBallotOpen   = trace.EvReplicaBallotOpen
	TraceReplicaPromise      = trace.EvReplicaPromise
	TraceReplicaPropose      = trace.EvReplicaPropose
	TraceReplicaLeaseGranted = trace.EvReplicaLeaseGranted
	TraceReplicaStepdown     = trace.EvReplicaStepdown
	TraceReplicaTakeover     = trace.EvReplicaTakeover
)

// TracePred selects events in TraceStream queries.
type TracePred = trace.Pred

// TraceByType matches events of any of the given types.
func TraceByType(types ...TraceEventType) TracePred { return trace.ByType(types...) }

// TraceByNode matches events emitted at node n.
func TraceByNode(n NodeID) TracePred { return trace.ByNode(n) }

// TraceByPeer matches events about peer p.
func TraceByPeer(p NodeID) TracePred { return trace.ByPeer(p) }

// TraceAnd conjoins predicates.
func TraceAnd(preds ...TracePred) TracePred { return trace.And(preds...) }

// TraceByNote matches events whose Note is exactly note.
func TraceByNote(note string) TracePred { return trace.ByNote(note) }

// TraceByNotePrefix matches events whose Note starts with prefix
// ("drop:" selects every fault-induced transport drop).
func TraceByNotePrefix(prefix string) TracePred { return trace.ByNotePrefix(prefix) }

// Faults is a runtime-mutable fault-injection plan for live TCP
// transports: directed blocks, partitions, isolation, per-link loss and
// latency — the simulator's failure vocabulary on real sockets. Install
// with rpcnet.WithFaults (or tankd's -fault-* flags); injected drops
// appear in traces as EvTransport events noted "drop:<reason>".
type Faults = faultnet.Faults

// FaultLink sets loss/latency characteristics of one directed link.
type FaultLink = faultnet.Link

// NewFaults creates an empty, enabled fault plan with seeded randomness.
func NewFaults(seed int64) *Faults { return faultnet.New(seed) }

// DropReason classifies an undelivered message, identically on the
// simulated and the live network.
type DropReason = simnet.DropReason

// The drop taxonomy shared by simnet and faultnet.
const (
	DropLoss       = simnet.DropLoss
	DropBlocked    = simnet.DropBlocked
	DropCrashed    = simnet.DropCrashed
	DropNoSuchNode = simnet.DropNoSuchNode
)

// Experiment is one reproducible figure/table runner.
type Experiment = experiments.Experiment

// ExperimentParams scales an experiment run.
type ExperimentParams = experiments.Params

// ExperimentResult is an experiment's rendered table and named metrics.
type ExperimentResult = experiments.Result

// Experiments lists every figure/table runner in paper order.
func Experiments() []Experiment { return experiments.All() }

// ExperimentByID finds one runner ("F1".."F5", "T1".."T8", "A1".."A2").
func ExperimentByID(id string) (Experiment, bool) { return experiments.ByID(id) }
