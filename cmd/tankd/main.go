// Command tankd runs a live Storage Tank installation's server side: the
// metadata/lock server on a TCP control port, plus the installation's SAN
// disks, each on its own TCP port. Clients (cmd/tankcli) connect to the
// control port for metadata and locks and directly to the disk ports for
// data — the paper's two-network architecture on loopback or a LAN.
//
//	tankd -ctrl :7001 -san-base 7101 -disks 2 -tau 30s -trace events.jsonl
//
// With -trace FILE every lease-lifecycle and transport event is appended
// to FILE as JSON lines. SIGUSR1 dumps the current statistics, the fault
// plan, and the most recent trace events to stdout without stopping the
// server. On SIGINT/SIGTERM it prints the server's statistics, including
// the authority counters that demonstrate the protocol's passivity, and
// exits.
//
// The -fault-loss, -fault-delay, and -fault-jitter flags arm a
// control-network fault-injection plan (internal/faultnet) on the
// server's transport: messages are dropped or delayed exactly as the
// simulator would, and every injected drop appears in the trace as an
// EvTransport "drop:..." event. SIGUSR2 toggles the plan at runtime, so
// a live installation can be degraded and healed mid-experiment:
//
//	tankd -fault-loss 0.2 -fault-delay 5ms -fault-jitter 5ms -trace events.jsonl
//
// A sharded installation runs one tankd per lease authority, each with
// -shard-id and the full -shards address book (and a distinct
// -disk-base). Every authority serves the hash-placed slice of the
// namespace and hands files whose rename destination lives elsewhere to
// the owning peer (DESIGN.md §14). An authority allocates only from the
// disks it hosts; -san-disks names the other authorities' disks, which it
// dials and fences but never allocates from: a handed-off file keeps its
// blocks where they were allocated, so every authority fences every disk
// (DESIGN.md §25). The per-authority lock count is the
// server.<id>.locks_held gauge in the SIGUSR1 dump:
//
//	tankd -shard-id 1 -ctrl :7001 -san-base 7101 -disk-base 1000 -shards "1=127.0.0.1:7001,2=127.0.0.1:7002" -san-disks "1100=127.0.0.1:7201,1101=127.0.0.1:7202"
//	tankd -shard-id 2 -ctrl :7002 -san-base 7201 -disk-base 1100 -shards "1=127.0.0.1:7001,2=127.0.0.1:7002" -san-disks "1000=127.0.0.1:7101,1001=127.0.0.1:7102"
//
// With -meta-persist FILE a server's metadata survives its process:
// every mutation is journalled to FILE.log before its reply leaves,
// FILE is the snapshot checkpoints fold the journal into, and a tankd
// restarted over the same files recovers the namespace and gives its
// former clients a grace window to reassert their locks:
//
//	tankd -data-dir /srv/tank -meta-persist /srv/tank/meta.json
//
// A replicated installation instead runs one tankd per replica of the
// SAME authority, each with the full -replicas book (DESIGN.md §15).
// The members run the diskless PaxosLease negotiation to elect the
// active authority; the others stay passive and redirect clients. The
// SAN must be hosted by its own process (-no-server) so the disks
// survive any authority kill; every member needs the full SAN view
// (-san-disks) to allocate and fence once it activates, and all members
// share one -meta-persist file (the paper's highly-available server
// storage: a snapshot plus the redo journal FILE.log beside it) so the
// takeover winner inherits the namespace. The SIGUSR1 dump and the
// server.<id>.role / server.<id>.ballot gauges report each member's
// view of the election:
//
//	tankd -no-server -san-base 7101 -disks 2
//	tankd -shard-id 1   -ctrl :7001 -disks 0 -san-disks "1000=127.0.0.1:7101,1001=127.0.0.1:7102" -meta-persist /srv/tank/meta.json -replicas "1=127.0.0.1:7001,101=127.0.0.1:7002,201=127.0.0.1:7003"
//	tankd -shard-id 101 -ctrl :7002 -disks 0 -san-disks "1000=127.0.0.1:7101,1001=127.0.0.1:7102" -meta-persist /srv/tank/meta.json -replicas "1=127.0.0.1:7001,101=127.0.0.1:7002,201=127.0.0.1:7003"
//	tankd -shard-id 201 -ctrl :7003 -disks 0 -san-disks "1000=127.0.0.1:7101,1001=127.0.0.1:7102" -meta-persist /srv/tank/meta.json -replicas "1=127.0.0.1:7001,101=127.0.0.1:7002,201=127.0.0.1:7003"
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/blockstore"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/faultnet"
	"repro/internal/msg"
	"repro/internal/replica"
	"repro/internal/rpcnet"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	var (
		ctrlAddr   = flag.String("ctrl", ":7001", "control-network listen address")
		shardID    = flag.Int("shard-id", 1, "this lease authority's node id")
		shardsFlag = flag.String("shards", "", "sharded control address book: id=addr,id=addr,... including this authority; enables hash placement and cross-shard renames")
		replFlag   = flag.String("replicas", "", "replica group address book: id=addr,id=addr,... including this node; members run PaxosLease to elect the active lease authority")
		replTerm   = flag.Duration("replica-lease-term", 0, "PaxosLease authority-lease term (0 = protocol default)")
		metaFile   = flag.String("meta-persist", "", "make the metadata durable: snapshot FILE plus the redo journal FILE.log beside it — every mutation is journalled before its reply leaves, and a restarted server (or, with -replicas, the takeover winner; every member must name the same FILE on shared storage) recovers the namespace from the pair (paper §1.1). Survives kill -9; a power loss may roll back to the last checkpoint")
		sanDisks   = flag.String("san-disks", "", "SAN disks hosted by OTHER processes: id=addr,id=addr,... — every replica member needs the full SAN view to allocate and fence once it activates (capacity assumed -disk-blocks each); under -shards, the other authorities' disks, fenced but never allocated from")
		noServer   = flag.Bool("no-server", false, "host only the SAN disks, no lease authority — a network-attached storage box that outlives any server kill")
		sanHost    = flag.String("san-host", "127.0.0.1", "host disks listen on")
		sanBase    = flag.Int("san-base", 7101, "first SAN port; disk i listens on san-base+i")
		nDisks     = flag.Int("disks", 2, "number of SAN disks to host")
		diskBase   = flag.Int("disk-base", 1000, "first disk node id (give each authority of a sharded installation a distinct range)")
		diskBlocks = flag.Uint64("disk-blocks", 1<<16, "capacity of each disk in 4KiB blocks")
		dataDir    = flag.String("data-dir", "", "persist disk contents under DIR/disk-<id> (file-backed media; empty = in-memory, lost on exit)")
		noSync     = flag.Bool("no-fsync", false, "with -data-dir, skip per-operation fsync (durable across process restarts, not power loss)")
		tau        = flag.Duration("tau", 30*time.Second, "lease period τ")
		eps        = flag.Float64("eps", 0.05, "clock rate-synchronization bound ε")
		tracePath  = flag.String("trace", "", "append lease-lifecycle events to FILE as JSON lines")
		traceRing  = flag.Int("trace-ring", 256, "recent events kept for the SIGUSR1 dump")
		verbose    = flag.Bool("v", false, "log transport events")

		faultLoss   = flag.Float64("fault-loss", 0, "control-network message loss probability [0,1]")
		faultDelay  = flag.Duration("fault-delay", 0, "added one-way control-network latency")
		faultJitter = flag.Duration("fault-jitter", 0, "added uniform control-network jitter in [0,jitter)")
		faultSeed   = flag.Int64("fault-seed", 1, "fault-injection randomness seed")
	)
	flag.Parse()

	if *noServer {
		// A pure NAS box: the paper's network-attached disks outlive any
		// lease authority, so the storage must not die with a server kill.
		switch {
		case *replFlag != "":
			log.Fatal("-no-server hosts no authority; drop -replicas")
		case *shardsFlag != "":
			log.Fatal("-no-server hosts no authority; drop -shards")
		case *replTerm != 0:
			log.Fatal("-no-server hosts no authority; drop -replica-lease-term")
		case *metaFile != "":
			log.Fatal("-no-server hosts no authority; drop -meta-persist")
		case *sanDisks != "":
			log.Fatal("-no-server hosts disks, it does not dial them; drop -san-disks")
		case *nDisks == 0:
			log.Fatal("-no-server with -disks 0 hosts nothing")
		}
	}
	cfg := core.DefaultConfig()
	cfg.Tau = *tau
	cfg.Bound.Eps = *eps

	// The trace bus: a ring for the signal-handler dump, plus an optional
	// JSONL file. Both the server and the disks share it.
	ring := trace.NewRing(*traceRing)
	tracer := trace.New(ring)
	var traceFile *os.File
	if *tracePath != "" {
		f, err := os.OpenFile(*tracePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("trace: %v", err)
		}
		traceFile = f
		tracer.Attach(trace.NewJSONL(f))
		fmt.Printf("tracing to %s\n", *tracePath)
	}
	if *verbose {
		tracer.Attach(trace.NewLogf(log.Printf))
	}

	// The control-network fault plan: configured by the -fault-* flags,
	// armed only when at least one is set, and toggled at runtime with
	// SIGUSR2 (the dropped/delayed messages land in the trace stream as
	// EvTransport "drop:..." events). The SAN is left clean: the paper's
	// chaos scenarios partition the control network while the storage
	// fabric keeps working.
	ctrlFaults := faultnet.New(*faultSeed)
	ctrlFaults.SetDefaultLink(faultnet.Link{Loss: *faultLoss, Delay: *faultDelay, Jitter: *faultJitter})
	faultsConfigured := *faultLoss > 0 || *faultDelay > 0 || *faultJitter > 0
	ctrlFaults.SetEnabled(faultsConfigured)

	// One registry shared by the server and every disk in this process,
	// so the SIGUSR1/exit dumps cover the whole installation (including
	// the media layer's fsync and journal instruments).
	reg := stats.NewRegistry()
	nodeOpts := []rpcnet.Option{rpcnet.WithTracer(tracer), rpcnet.WithFaults(ctrlFaults, nil),
		rpcnet.WithRegistry(reg)}

	// Disks first, so the server's address book is complete. With
	// -data-dir each disk opens (or recovers) a file-backed store, so a
	// tankd restart from the same directory preserves every acknowledged
	// write and the fence table; without it the media is in-memory.
	topo := rpcnet.Topology{Server: msg.NodeID(*shardID), ServerAddr: *ctrlAddr,
		Disks: make(map[msg.NodeID]string)}
	if err := topo.AddBooks(topo.Server, *shardsFlag, *replFlag); err != nil {
		log.Fatal(err)
	}
	diskCaps := make(map[msg.NodeID]uint64)
	if *sanDisks != "" {
		// SAN disks living in other processes: the server still needs
		// their addresses (fencing, function-shipping) and, unless they
		// are another authority's, their capacities (block allocation). A
		// replica member that hosts no disks of its own is useless as a
		// successor without this view.
		remote, err := rpcnet.ParseAddrBook(*sanDisks)
		if err != nil {
			log.Fatalf("-san-disks: %v", err)
		}
		sharded := len(topo.ServerIDs()) > 1
		for id, addr := range remote {
			topo.Disks[id] = addr
			if !sharded {
				diskCaps[id] = *diskBlocks
			}
		}
	}
	var diskNodes []*rpcnet.DiskNode
	for i := 0; i < *nDisks; i++ {
		id := msg.NodeID(*diskBase + i)
		diskOpts := nodeOpts
		if *dataDir != "" {
			dir := filepath.Join(*dataDir, fmt.Sprintf("disk-%d", id))
			media, err := blockstore.Open(dir, blockstore.Options{
				Blocks: *diskBlocks, NoSync: *noSync,
				Registry: reg, StatsPrefix: fmt.Sprintf("disk.%v.media.", id),
			})
			if err != nil {
				log.Fatalf("disk %v media: %v", id, err)
			}
			if rep := media.Recovery(); rep.Recovered {
				fmt.Printf("disk %v recovered from %s: %v\n", id, dir, rep)
			} else {
				fmt.Printf("disk %v created %s (%d blocks)\n", id, dir, *diskBlocks)
			}
			diskOpts = append(append([]rpcnet.Option(nil), nodeOpts...), rpcnet.WithMedia(media))
		}
		topo.Disks[id] = fmt.Sprintf("%s:%d", *sanHost, *sanBase+i)
		dn, err := rpcnet.StartDiskNode(rpcnet.NodeSpec{ID: id, Topo: topo},
			disk.Config{Blocks: *diskBlocks}, diskOpts...)
		if err != nil {
			log.Fatalf("disk %v: %v", id, err)
		}
		diskNodes = append(diskNodes, dn)
		topo.Disks[id] = dn.Addr.String()
		diskCaps[id] = *diskBlocks
		fmt.Printf("disk %v listening on %v (%d blocks)\n", id, dn.Addr, *diskBlocks)
	}

	var srv *rpcnet.ServerNode
	if *noServer {
		fmt.Printf("no server: hosting %d SAN disks only\n", *nDisks)
		fmt.Printf("servers: tankd -disks 0 -san-disks %q ...\n", diskFlag(topo.Disks))
	} else {
		scfg := server.Config{Core: cfg, Disks: diskCaps, MetaPersist: *metaFile}
		if *replTerm != 0 {
			if topo.GroupOf(topo.Server) == nil {
				log.Fatal("-replica-lease-term needs -replicas")
			}
			scfg.Replica = &replica.Config{LeaseTerm: *replTerm}
		}
		// With more than one authority in -shards, the server's slice of the
		// namespace is the topology's default placement: hash over the
		// sorted authority IDs, the map every tankd and tankcli derives
		// from the same book. It fences on every disk in topo.Disks.
		s, err := rpcnet.StartServerNode(rpcnet.NodeSpec{ID: topo.Server, Topo: topo}, scfg, nodeOpts...)
		if err != nil {
			log.Fatalf("server: %v", err)
		}
		srv = s
		fmt.Printf("server n%d listening on %v (τ=%v ε=%g)\n", *shardID, srv.Addr, *tau, *eps)
		switch {
		case *replFlag != "":
			rc := srv.Srv.Config().Replica
			role := srv.Reg.Gauge(fmt.Sprintf("server.%v.role", topo.Server)).Value()
			fmt.Printf("replica %s of group %v (PaxosLease term %v)\n", msg.RoleName(uint8(role)), rc.Group, rc.LeaseTerm)
			if *metaFile == "" {
				fmt.Println("warning: no -meta-persist — the namespace dies with the active; point every member at one file on shared storage")
			}
			fmt.Printf("clients: tankcli -replicas %q -disks %q\n", *replFlag, diskFlag(topo.Disks))
		case *shardsFlag != "":
			fmt.Printf("shard %d of %d (hash placement over %v)\n", *shardID, len(topo.Servers), topo.ServerIDs())
			fmt.Printf("clients: tankcli -shards %q -disks %q\n", *shardsFlag, diskFlag(topo.Disks))
		default:
			fmt.Printf("clients: tankcli -server %v -disks %q\n", srv.Addr, diskFlag(topo.Disks))
		}
	}
	if faultsConfigured {
		fmt.Printf("%s (SIGUSR2 toggles)\n", ctrlFaults.Summary())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGUSR1, syscall.SIGUSR2)
	for s := range sig {
		switch s {
		case syscall.SIGUSR1:
			self := msg.None
			if srv != nil {
				self = topo.Server
			}
			dumpState(reg, self, ring, ctrlFaults)
			continue
		case syscall.SIGUSR2:
			ctrlFaults.Toggle()
			fmt.Println(ctrlFaults.Summary())
			continue
		}
		break
	}

	fmt.Println("\n--- statistics ---")
	fmt.Print(reg.Dump())
	if srv != nil {
		srv.Close()
	}
	for _, d := range diskNodes {
		d.Close()
	}
	if traceFile != nil {
		traceFile.Close()
	}
}

// dumpState prints the live metrics and the tail of the event stream —
// the SIGUSR1 "what is the lease protocol doing right now" report. With
// self == msg.None (a -no-server disk box) the replica line is skipped.
func dumpState(reg *stats.Registry, self msg.NodeID, ring *trace.Ring, faults *faultnet.Faults) {
	fmt.Println("--- statistics ---")
	if self != msg.None {
		// Read the operator gauges rather than the server state machine:
		// the signal handler runs off the server's executor, and the
		// gauges are the atomically-published view of role and ballot.
		role := reg.Gauge(fmt.Sprintf("server.%v.role", self)).Value()
		ballot := reg.Gauge(fmt.Sprintf("server.%v.ballot", self)).Value()
		fmt.Printf("replica role=%s ballot=%d\n", msg.RoleName(uint8(role)), ballot)
	}
	fmt.Print(reg.Dump())
	fmt.Println(faults.Summary())
	evs := ring.Events()
	fmt.Printf("--- last %d trace events (%d total) ---\n", len(evs), ring.Total())
	for _, e := range evs {
		fmt.Println(e.String())
	}
}

// diskFlag renders an address book of disks, in ID order, as -disks and
// -san-disks take it: every disk this tankd hosts or dials, which is what
// a client of the installation dials.
func diskFlag(addrs map[msg.NodeID]string) string {
	ids := make([]msg.NodeID, 0, len(addrs))
	for id := range addrs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("%d=%s", id, addrs[id])
	}
	return strings.Join(parts, ",")
}
