// Package cluster wires a complete simulated Storage Tank installation —
// scheduler, rate-skewed clocks, control network, SAN, disks, metadata
// server, clients, and the consistency oracle — exactly the topology of
// the paper's Figure 1. Tests, examples, and every experiment build on
// this harness.
package cluster

import (
	"fmt"
	"math"
	"time"

	"repro/internal/baselines"
	"repro/internal/checker"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/msg"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Well-known node IDs: the server is 1, clients count up from 10, disks
// from 1000.
const (
	ServerID    msg.NodeID = 1
	FirstClient msg.NodeID = 10
	FirstDisk   msg.NodeID = 1000
)

// Options configures an installation.
type Options struct {
	Seed       int64
	Clients    int
	Disks      int
	DiskBlocks uint64
	// Core is the protocol configuration shared by all nodes.
	Core   core.Config
	Policy baselines.Policy
	// FlushInterval configures periodic client write-back (0 = off).
	FlushInterval time.Duration
	// ClockSkew draws client/server clock rates within the pairwise rate
	// bound Core.Bound.Eps when true; all clocks run at rate 1 otherwise.
	ClockSkew bool
	// Control/SAN override the network characteristics.
	Control, SAN simnet.Config
	// DiskService overrides per-op disk latency.
	DiskService time.Duration
	// NoChecker disables the consistency oracle (benchmarks measuring raw
	// cost).
	NoChecker bool
	// NoNACK and DisableFence are protocol ablations (see server.Config).
	NoNACK       bool
	DisableFence bool
	// DisableReassert turns off §6 lock reassertion after server restarts
	// (clients then pay the full lease recovery).
	DisableReassert bool
	// GracePeriod overrides the restarted server's reassertion window.
	GracePeriod time.Duration
	// CacheMaxPages bounds each client's resident cache (0 = unbounded).
	CacheMaxPages int
	// CacheQuota bounds each client's resident cache in bytes, counted
	// after content dedup (0 = unbounded).
	CacheQuota int64
	// FlushBatch bounds how many dirty pages one vectored SAN write may
	// carry (0 = client default; 1 = legacy per-page write-back).
	FlushBatch int
	// Prefetch is each client's client.Config.Prefetch: the largest
	// sequential read-ahead window.
	Prefetch int
	// ClientRates pins explicit clock rates per client (overrides
	// ClockSkew for those indices); ServerRate pins the server's.
	ClientRates []float64
	ServerRate  float64
	// Tracer, when non-nil, receives lease-lifecycle events from every
	// node. Simulated clocks make the event timestamps deterministic.
	Tracer *trace.Tracer
}

// DefaultOptions returns a 3-client, 2-disk installation with the default
// protocol parameters (but a short τ suited to simulation runs).
func DefaultOptions() Options {
	cfg := core.DefaultConfig()
	cfg.Tau = 10 * time.Second
	cfg.RetryInterval = 200 * time.Millisecond
	return Options{
		Seed:        1,
		Clients:     3,
		Disks:       2,
		DiskBlocks:  1 << 14,
		Core:        cfg,
		Policy:      baselines.StorageTank(),
		ClockSkew:   true,
		Control:     simnet.DefaultControlConfig(),
		SAN:         simnet.DefaultSANConfig(),
		DiskService: 100 * time.Microsecond,
	}
}

// Cluster is one running installation.
type Cluster struct {
	Opts    Options
	Sched   *sim.Scheduler
	Control *simnet.Network
	SAN     *simnet.Network
	Server  *server.Server
	Clients []*client.Client
	Disks   []*disk.Disk
	Checker *checker.Checker
	Reg     *stats.Registry
}

// New builds an installation. Nothing runs until the scheduler does.
func New(opts Options) *Cluster {
	if opts.Clients < 1 || opts.Disks < 1 {
		panic("cluster: need at least one client and one disk")
	}
	s := sim.NewScheduler(opts.Seed)
	reg := stats.NewRegistry()
	cl := &Cluster{
		Opts:    opts,
		Sched:   s,
		Control: simnet.New(s, opts.Control),
		SAN:     simnet.New(s, opts.SAN),
		Reg:     reg,
	}
	if !opts.NoChecker {
		cl.Checker = checker.New(s)
	}
	cl.observeNetworks()
	// Dropped messages land in the trace stream under the same DropReason
	// taxonomy the live fault injector (internal/faultnet) uses.
	cl.Control.SetTracer(opts.Tracer)
	cl.SAN.SetTracer(opts.Tracer)

	newClock := func() *sim.NodeClock {
		if opts.ClockSkew && opts.Core.Bound.Eps > 0 {
			// Draw each rate within sqrt(1+eps) of 1 so any PAIR of
			// clocks satisfies the bound eps.
			half := math.Sqrt(1+opts.Core.Bound.Eps) - 1
			lo := 1 / (1 + half)
			hi := 1 + half
			rate := lo + s.Rand().Float64()*(hi-lo)
			return s.NewClock(rate, sim.Duration(s.Rand().Int63n(int64(time.Hour))))
		}
		return s.NewClock(1, 0)
	}

	// Disks.
	diskMap := make(map[msg.NodeID]uint64, opts.Disks)
	var obs disk.Observer
	for i := 0; i < opts.Disks; i++ {
		id := FirstDisk + msg.NodeID(i)
		d := disk.New(id, disk.Config{Blocks: opts.DiskBlocks, ServiceTime: opts.DiskService},
			s.NewClock(1, 0),
			func(to msg.NodeID, m msg.Message) { cl.SAN.Send(id, to, m) },
			reg, obs, disk.WithTracer(opts.Tracer))
		cl.Disks = append(cl.Disks, d)
		cl.SAN.Attach(id, d.Deliver)
		diskMap[id] = opts.DiskBlocks
	}

	// Server: attached to both networks (Fig 1).
	srvCfg := server.Config{
		Core: opts.Core, Policy: opts.Policy, Disks: diskMap,
		NoNACK: opts.NoNACK, DisableFence: opts.DisableFence,
	}
	serverClock := newClock()
	if opts.ServerRate > 0 {
		serverClock = s.NewClock(opts.ServerRate, 0)
	}
	srv := server.New(ServerID, srvCfg, serverClock,
		func(to msg.NodeID, m msg.Message) { cl.Control.Send(ServerID, to, m) },
		func(to msg.NodeID, m msg.Message) { cl.SAN.Send(ServerID, to, m) },
		reg, opts.Tracer)
	cl.Server = srv
	cl.Control.Attach(ServerID, srv.Deliver)
	cl.SAN.Attach(ServerID, srv.DeliverSAN)

	// Clients: attached to both networks.
	var oracle checker.Oracle = checker.Nop{}
	if cl.Checker != nil {
		oracle = cl.Checker
	}
	for i := 0; i < opts.Clients; i++ {
		id := FirstClient + msg.NodeID(i)
		ccfg := client.Config{
			Core: opts.Core, Policy: opts.Policy,
			FlushInterval: opts.FlushInterval, DisableReassert: opts.DisableReassert,
			CacheMaxPages: opts.CacheMaxPages, CacheQuota: opts.CacheQuota,
			FlushBatch: opts.FlushBatch, Prefetch: opts.Prefetch,
		}
		clientClock := newClock()
		if i < len(opts.ClientRates) && opts.ClientRates[i] > 0 {
			clientClock = s.NewClock(opts.ClientRates[i], 0)
		}
		c := client.New(id, ServerID, ccfg, clientClock,
			func(to msg.NodeID, m msg.Message) { cl.Control.Send(id, to, m) },
			func(to msg.NodeID, m msg.Message) { cl.SAN.Send(id, to, m) },
			oracle, reg, opts.Tracer)
		cl.Clients = append(cl.Clients, c)
		cl.Control.Attach(id, c.Deliver)
		cl.SAN.Attach(id, c.DeliverSAN)
	}
	return cl
}

// observeNetworks counts message traffic per network and kind. The
// observer runs once per simulated message, so the counter handles are
// resolved up front (the Kind space is a small enum) — building the
// counter name per event would put two string concatenations and a
// mutex-guarded map lookup on the simulator's hottest path.
func (cl *Cluster) observeNetworks() {
	count := func(net string) func(simnet.Event) {
		var sent, delivered [msg.KindShard + 1]*stats.Counter
		for k := msg.KindControlReq; k <= msg.KindShard; k++ {
			sent[k] = cl.Reg.Counter(net + ".sent." + k.String())
			delivered[k] = cl.Reg.Counter(net + ".delivered." + k.String())
		}
		bytes := cl.Reg.Counter(net + ".bytes")
		return func(e simnet.Event) {
			k := e.Env.Payload.Kind()
			if int(k) >= len(sent) || sent[k] == nil {
				// Unknown kind (future enum growth): fall back to the slow path.
				cl.Reg.Counter(net + ".sent." + k.String()).Inc()
				bytes.Add(uint64(e.Env.Payload.Size()))
				if e.Delivered {
					cl.Reg.Counter(net + ".delivered." + k.String()).Inc()
				}
				return
			}
			sent[k].Inc()
			bytes.Add(uint64(e.Env.Payload.Size()))
			if e.Delivered {
				delivered[k].Inc()
			}
		}
	}
	cl.Control.Observer = count("net.control")
	cl.SAN.Observer = count("net.san")
}

// ClientID returns the node ID of client index i.
func ClientID(i int) msg.NodeID { return FirstClient + msg.NodeID(i) }

// Start registers every client and runs the simulation until all are
// registered (panics after a generous bound — registration cannot hang on
// a healthy network).
func (cl *Cluster) Start() {
	for _, c := range cl.Clients {
		c.Start()
	}
	deadline := cl.Sched.Now().Add(time.Minute)
	cl.Sched.RunWhile(func() bool {
		if cl.Sched.Now().After(deadline) {
			panic("cluster: clients failed to register")
		}
		for _, c := range cl.Clients {
			if !c.Registered() {
				return true
			}
		}
		return false
	})
	for _, c := range cl.Clients {
		if !c.Registered() {
			panic("cluster: registration incomplete")
		}
	}
}

// Await runs the simulation until the operation started by start calls
// done, or the queue drains, or maxSim elapses. It reports completion.
func (cl *Cluster) Await(maxSim time.Duration, start func(done func())) bool {
	finished := false
	deadline := cl.Sched.Now().Add(maxSim)
	start(func() { finished = true })
	cl.Sched.RunWhile(func() bool {
		return !finished && !cl.Sched.Now().After(deadline)
	})
	return finished
}

// RunFor advances the installation by d of simulated time.
func (cl *Cluster) RunFor(d time.Duration) { cl.Sched.RunFor(d) }

// SyncClient returns a blocking wrapper over client i, pumped by the
// simulator: each call advances the scheduler until the operation
// completes (at most a simulated minute).
func (cl *Cluster) SyncClient(i int) *client.SyncClient {
	return client.NewSync(cl.Clients[i], func(start func(done func())) bool {
		return cl.Await(time.Minute, start)
	})
}

// --- Synchronous convenience wrappers (tests, examples, experiments) --------

// MustOpen opens (optionally creating) a file on client i.
func (cl *Cluster) MustOpen(i int, path string, write, create bool) (msg.Handle, msg.Attr) {
	var h msg.Handle
	var attr msg.Attr
	var errno msg.Errno = msg.ErrStale
	ok := cl.Await(time.Minute, func(done func()) {
		cl.Clients[i].Open(path, write, create, func(gh msg.Handle, a msg.Attr, e msg.Errno) {
			h, attr, errno = gh, a, e
			done()
		})
	})
	if !ok || errno != msg.OK {
		panic(fmt.Sprintf("cluster: open %s on client %d: ok=%v errno=%v", path, i, ok, errno))
	}
	return h, attr
}

// Open opens a file and returns the errno.
func (cl *Cluster) Open(i int, path string, write, create bool) (msg.Handle, msg.Attr, msg.Errno) {
	var h msg.Handle
	var attr msg.Attr
	errno := msg.ErrStale
	cl.Await(time.Minute, func(done func()) {
		cl.Clients[i].Open(path, write, create, func(gh msg.Handle, a msg.Attr, e msg.Errno) {
			h, attr, errno = gh, a, e
			done()
		})
	})
	return h, attr, errno
}

// Write writes one block on client i and returns the errno (which
// reflects acceptance into the write-back cache).
func (cl *Cluster) Write(i int, h msg.Handle, idx uint64, data []byte) msg.Errno {
	errno := msg.ErrStale
	cl.Await(time.Minute, func(done func()) {
		cl.Clients[i].Write(h, idx, data, func(e msg.Errno) {
			errno = e
			done()
		})
	})
	return errno
}

// Read reads one block on client i.
func (cl *Cluster) Read(i int, h msg.Handle, idx uint64) ([]byte, msg.Errno) {
	var data []byte
	errno := msg.ErrStale
	cl.Await(time.Minute, func(done func()) {
		cl.Clients[i].Read(h, idx, func(d []byte, e msg.Errno) {
			data, errno = d, e
			done()
		})
	})
	return data, errno
}

// Sync flushes client i's dirty data.
func (cl *Cluster) Sync(i int) msg.Errno {
	errno := msg.ErrStale
	cl.Await(time.Minute, func(done func()) {
		cl.Clients[i].Sync(func(e msg.Errno) {
			errno = e
			done()
		})
	})
	return errno
}

// Close closes a handle on client i.
func (cl *Cluster) Close(i int, h msg.Handle) msg.Errno {
	errno := msg.ErrStale
	cl.Await(time.Minute, func(done func()) {
		cl.Clients[i].Close(h, func(e msg.Errno) {
			errno = e
			done()
		})
	})
	return errno
}

// IsolateClient cuts client i off the control network only — the paper's
// canonical failure (Fig 2): the SAN still works.
func (cl *Cluster) IsolateClient(i int) { cl.Control.Isolate(ClientID(i)) }

// HealControl removes all control-network partitions.
func (cl *Cluster) HealControl() { cl.Control.Heal() }

// CrashClient fails client i on both networks and discards its state.
func (cl *Cluster) CrashClient(i int) {
	cl.Clients[i].Crash()
	cl.Control.Crash(ClientID(i))
	cl.SAN.Crash(ClientID(i))
}

// CrashServer fails the metadata server: volatile state (locks, epochs,
// lease bookkeeping) is gone; the metadata store survives on the
// server's private highly-available storage (§6). While down, the
// server receives nothing.
func (cl *Cluster) CrashServer() {
	cl.Server.Stop()
	cl.Control.Crash(ServerID)
	cl.SAN.Crash(ServerID)
}

// RestartServer brings a crashed server back with the recovered store
// and a reassertion grace window. Clients rebuild its lock state (§6).
func (cl *Cluster) RestartServer() {
	cl.Control.Restart(ServerID)
	cl.SAN.Restart(ServerID)
	diskMap := make(map[msg.NodeID]uint64, len(cl.Disks))
	for _, d := range cl.Disks {
		diskMap[d.ID()] = d.Capacity()
	}
	srvCfg := server.Config{
		Core: cl.Opts.Core, Policy: cl.Opts.Policy, Disks: diskMap,
		NoNACK: cl.Opts.NoNACK, DisableFence: cl.Opts.DisableFence,
		Store: cl.Server.Store(), GracePeriod: cl.Opts.GracePeriod,
	}
	clock := cl.Sched.NewClock(1, 0)
	srv := server.New(ServerID, srvCfg, clock,
		func(to msg.NodeID, m msg.Message) { cl.Control.Send(ServerID, to, m) },
		func(to msg.NodeID, m msg.Message) { cl.SAN.Send(ServerID, to, m) },
		cl.Reg, cl.Opts.Tracer)
	cl.Server = srv
	cl.Control.Attach(ServerID, srv.Deliver)
	cl.SAN.Attach(ServerID, srv.DeliverSAN)
}

// BlockSize re-exports the installation's data block size.
const BlockSize = client.BlockSize
