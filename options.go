package storagetank

// This file is the unified construction surface. Historically the repo
// grew three configuration vocabularies — the cluster.Options struct for
// simulated installations, rpcnet's functional options for live nodes,
// and the disk/blockstore option structs underneath both — and a caller
// wiring a tracer or a media store had to know which of the three each
// knob belonged to. The With* options below speak all three dialects:
// each option knows every surface it applies to, so the same []Option
// configures a simulated Cluster (NewClusterWith) — one server or a
// sharded, replicated cluster of them — or a live TCP node (StartServer /
// StartDisk / StartClient).

import (
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/disk"
	"repro/internal/msg"
	"repro/internal/replica"
	"repro/internal/rpcnet"
	"repro/internal/server"
	"repro/internal/stats"
)

// Build is the resolved configuration an []Option produces: the same
// knobs projected onto every construction surface at once. Options
// mutate it; the constructors read only the slice relevant to them.
type Build struct {
	// Cluster configures a simulated installation (NewClusterWith); the
	// live constructors read the protocol, policy, cache and disk knobs
	// from it too.
	Cluster cluster.Options
	// Node accumulates live-node functional options (StartServer,
	// StartDisk, StartClient).
	Node []rpcnet.Option

	// liveDiskService is the service time a live disk node simulates
	// (only when set explicitly: real hardware has real latency, so the
	// simulator's default is not projected onto live nodes).
	liveDiskService time.Duration
}

// Option is one knob in the unified configuration vocabulary. Every
// option documents which surfaces it reaches; options that do not apply
// to the surface being built are silently inert, so one option list can
// be shared between a simulation and its live counterpart.
type Option func(*Build)

// NewBuild returns the default configuration: a 3-client, 2-disk
// single-server installation for the simulated surface and no live-node
// options.
func NewBuild() Build {
	return Build{Cluster: cluster.DefaultOptions()}
}

// Resolve applies opts over the defaults. Constructors call this; it is
// exported for callers that need the resolved configuration itself
// (printing τ, sizing a table) without building anything.
func Resolve(opts ...Option) Build {
	b := NewBuild()
	for _, o := range opts {
		o(&b)
	}
	return b
}

// WithSeed seeds all deterministic randomness (scheduler, clock skew,
// network jitter). [sim]
func WithSeed(seed int64) Option {
	return func(b *Build) { b.Cluster.Seed = seed }
}

// WithClients sets the number of clients. [sim]
func WithClients(n int) Option {
	return func(b *Build) { b.Cluster.Clients = n }
}

// WithDisks sets the number of SAN disks each lease authority owns. [sim]
func WithDisks(n int) Option {
	return func(b *Build) { b.Cluster.Disks = n }
}

// WithShards sets the number of independent lease authorities the
// namespace is partitioned across (1, the default, is the single-server
// installation). [sim]
func WithShards(n int) Option {
	return func(b *Build) { b.Cluster.Shards = n }
}

// WithReplicas gives every lease authority a replica group of m
// members (m ≥ 2) negotiating the active role by diskless PaxosLease
// (DESIGN.md §15); m ≤ 1 keeps singleton authorities. Live
// installations declare groups in Topology.ReplicaGroups instead — the
// topology is the address book, so membership must live there. [sim]
func WithReplicas(m int) Option {
	return func(b *Build) { b.Cluster.Replicas = m }
}

// WithReplicaLeaseTerm sets the authority-lease term of a replicated
// installation (0 = the default; shorter terms take over faster and
// renew more often). The takeover window after an active replica's
// crash is bounded by term·(1+ε) plus negotiation retries plus the
// grace period. [sim, live server]
func WithReplicaLeaseTerm(d time.Duration) Option {
	return func(b *Build) { b.Cluster.ReplicaLeaseTerm = d }
}

// WithPlacement sets the deterministic path-to-shard placement map
// (default: hash over the full path when there is more than one shard).
// Live installations set Topology.Placement instead. [sim]
func WithPlacement(p Placement) Option {
	return func(b *Build) { b.Cluster.Placement = p }
}

// WithServerService models each lease authority as a single-threaded
// request processor with the given per-request service time (0 = the
// default infinite capacity) — the knob the shard scale benchmark turns
// to make metadata throughput authority-bound. [sim]
func WithServerService(d time.Duration) Option {
	return func(b *Build) { b.Cluster.ServerService = d }
}

// WithDiskBlocks sets each disk's capacity in 4 KiB blocks.
// [sim, live server, live disk]
func WithDiskBlocks(n uint64) Option {
	return func(b *Build) { b.Cluster.DiskBlocks = n }
}

// WithProtocol sets the lease protocol configuration (τ, ε, phase
// boundaries, retries). [sim, live server, live client]
func WithProtocol(cfg Config) Option {
	return func(b *Build) { b.Cluster.Core = cfg }
}

// WithPolicy selects the lease/recovery/data-path policy.
// [sim, live server, live client]
func WithPolicy(p Policy) Option {
	return func(b *Build) { b.Cluster.Policy = p }
}

// WithFlushInterval enables periodic client write-back (0 = off, the
// default: dirty data then flushes only on demands and phase 4).
// [sim, live client]
func WithFlushInterval(d time.Duration) Option {
	return func(b *Build) { b.Cluster.FlushInterval = d }
}

// WithFlushBatch bounds how many dirty pages one vectored SAN write may
// carry per target disk (0 = the client default; 1 = legacy per-page
// write-back). [sim, live client]
func WithFlushBatch(n int) Option {
	return func(b *Build) { b.Cluster.FlushBatch = n }
}

// WithCacheMaxPages bounds each client node's resident cache (0 =
// unbounded); a node facing several authorities keeps one cache under
// the bound for all of them. [sim, live client]
func WithCacheMaxPages(n int) Option {
	return func(b *Build) { b.Cluster.CacheMaxPages = n }
}

// WithCacheQuota bounds each client node's resident cache in bytes,
// counted after content dedup — pages sharing one content block cost its
// size once (0 = unbounded). Clean pages are evicted LRU beyond the quota;
// dirty pages are pinned until flushed. Composes with WithCacheMaxPages
// (both bounds are enforced) and, like it, bounds the node's one cache
// whatever number of authorities it faces. [sim, live client]
func WithCacheQuota(bytes int64) Option {
	return func(b *Build) { b.Cluster.CacheQuota = bytes }
}

// WithPrefetch caps each client's sequential read-ahead window at n
// blocks; n ≤ 0 disables read-ahead. Without the option the cap is the
// client's default (client.Config.Prefetch has the policy). [sim, live
// client]
func WithPrefetch(n int) Option {
	return func(b *Build) {
		if n <= 0 {
			b.Cluster.Prefetch = -1
			return
		}
		b.Cluster.Prefetch = n
	}
}

// WithClockSkew draws per-node clock rates within the pairwise rate
// bound ε when on (the default), or pins every clock to rate 1. [sim]
func WithClockSkew(on bool) Option {
	return func(b *Build) { b.Cluster.ClockSkew = on }
}

// WithDiskService sets the per-operation disk latency a disk simulates
// before replying. A vectored batch pays it once. [sim, live disk]
func WithDiskService(d time.Duration) Option {
	return func(b *Build) {
		b.Cluster.DiskService = d
		b.liveDiskService = d
	}
}

// WithoutChecker disables the consistency oracles (benchmarks measuring
// raw protocol cost). [sim]
func WithoutChecker() Option {
	return func(b *Build) { b.Cluster.NoChecker = true }
}

// WithGracePeriod overrides a restarted server's lock-reassertion
// window. [sim]
func WithGracePeriod(d time.Duration) Option {
	return func(b *Build) { b.Cluster.GracePeriod = d }
}

// WithTracer attaches the lease-lifecycle event bus to every node of
// the installation — phase transitions, renewals, NACKs, steals,
// demands, flushes, fences, vectored-batch disk commits, and transport
// drops land in one totally-ordered stream. [sim, live]
func WithTracer(tr *Tracer) Option {
	return func(b *Build) {
		b.Cluster.Tracer = tr
		b.Node = append(b.Node, rpcnet.WithTracer(tr))
	}
}

// WithMedia backs a live disk node with the given storage (see
// OpenFileMedia for the durable, crash-recovering implementation).
// [live disk]
func WithMedia(m Media) Option {
	return func(b *Build) { b.Node = append(b.Node, rpcnet.WithMedia(m)) }
}

// WithFaults installs runtime-mutable fault-injection plans on a live
// node's transports: ctrl on the control network, san on the SAN
// (either may be nil for a healthy fabric). [live]
func WithFaults(ctrl, san *Faults) Option {
	return func(b *Build) { b.Node = append(b.Node, rpcnet.WithFaults(ctrl, san)) }
}

// WithRegistry supplies the metrics registry a live node's instruments
// live in — share one across every node of an in-process installation
// for a single statistics dump. [live]
func WithRegistry(reg *StatsRegistry) Option {
	return func(b *Build) { b.Node = append(b.Node, rpcnet.WithRegistry(reg)) }
}

// NewClusterWith builds a simulated installation from the unified
// vocabulary: one server by default, a cluster of them with WithShards,
// each a replica group with WithReplicas. Nothing runs until its
// scheduler does (cl.Start registers the clients).
func NewClusterWith(opts ...Option) *Cluster {
	return cluster.New(Resolve(opts...).Cluster)
}

// SyncClient is the blocking facade over the event-driven client: plain
// calls returning error, available both from a simulated cluster
// (Cluster.SyncClient) and a live client node (ClientNode.Sync).
type SyncClient = client.SyncClient

// StatsRegistry is the metrics registry nodes record their instruments
// in (counters, distributions; see Cluster.Reg and ServerNode.Reg).
type StatsRegistry = stats.Registry

// NewStatsRegistry creates an empty metrics registry.
func NewStatsRegistry() *StatsRegistry { return stats.NewRegistry() }

// Topology is a live installation's address book: the metadata server's
// control address and each SAN disk's listen address.
type Topology = rpcnet.Topology

// NodeSpec identifies one node within a live topology.
type NodeSpec = rpcnet.NodeSpec

// ServerNode, DiskNode, and ClientNode are the live TCP counterparts of
// the simulated server, disk, and client.
type (
	ServerNode = rpcnet.ServerNode
	DiskNode   = rpcnet.DiskNode
	ClientNode = rpcnet.ClientNode
)

// Loopback returns "127.0.0.1:0" for ephemeral live-node listeners.
func Loopback() string { return rpcnet.Loopback() }

// StartServer launches a live metadata server for the topology in
// spec: it listens for clients on Topo.ServerAddr, dials the disks in
// Topo.Disks and fences on all of them. diskCaps lists the disks it
// allocates from, each with its capacity in blocks. Nil means every disk
// in the topology at the configured WithDiskBlocks size, which only an
// installation of one authority may ask for: no two authorities allocate
// from one disk.
func StartServer(spec NodeSpec, diskCaps map[NodeID]uint64, opts ...Option) (*ServerNode, error) {
	b := Resolve(opts...)
	if diskCaps == nil {
		if n := len(spec.Topo.ServerIDs()); n > 1 {
			return nil, fmt.Errorf("storagetank: server %v: pass the disks it allocates from; %d authorities cannot all allocate from every disk", spec.ID, n)
		}
		diskCaps = make(map[msg.NodeID]uint64, len(spec.Topo.Disks))
		for id := range spec.Topo.Disks {
			diskCaps[id] = b.Cluster.DiskBlocks
		}
	}
	cfg := server.Config{Core: b.Cluster.Core, Policy: b.Cluster.Policy, Disks: diskCaps}
	// A node listed in a Topology.ReplicaGroups group runs the PaxosLease
	// negotiator; the option only sets its lease term.
	if b.Cluster.ReplicaLeaseTerm != 0 {
		cfg.Replica = &replica.Config{LeaseTerm: b.Cluster.ReplicaLeaseTerm}
	}
	return rpcnet.StartServerNode(spec, cfg, b.Node...)
}

// StartDisk launches a live SAN disk node listening on its Topo.Disks
// address. By default it serves at media speed; WithDiskService adds
// simulated per-operation latency, and WithMedia makes it durable.
func StartDisk(spec NodeSpec, opts ...Option) (*DiskNode, error) {
	b := Resolve(opts...)
	cfg := disk.Config{Blocks: b.Cluster.DiskBlocks, ServiceTime: b.liveDiskService}
	return rpcnet.StartDiskNode(spec, cfg, b.Node...)
}

// StartClient launches a live client node: it dials the topology's
// servers on the control network and the disks on the SAN, registers with
// every authority, and waits for its leases — the returned node is
// immediately usable. Use node.Sync(timeout) for the blocking call
// surface.
func StartClient(spec NodeSpec, opts ...Option) (*ClientNode, error) {
	b := Resolve(opts...)
	cn, err := rpcnet.StartClientNode(spec, b.Cluster.ClientConfig(), b.Node...)
	if err != nil {
		return nil, err
	}
	if err := cn.Start(0); err != nil {
		cn.Close()
		return nil, fmt.Errorf("storagetank: client %v: %w", spec.ID, err)
	}
	return cn, nil
}
