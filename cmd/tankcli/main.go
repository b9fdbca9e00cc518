// Command tankcli is a live Storage Tank client: it registers with a
// tankd server over TCP, performs file-system operations — metadata
// through the control network, data directly against the SAN disk ports —
// and prints the results.
//
//	tankcli -server 127.0.0.1:7001 -disks "1000=127.0.0.1:7101,1001=127.0.0.1:7102" \
//	        -id 10 write /hello.txt 0 "hello storage tank"
//	tankcli ... -id 11 read /hello.txt 0
//
// Commands: mkdir PATH | create PATH | ls PATH | stat PATH | rm PATH |
// mv OLD NEW | write PATH BLOCK TEXT | read PATH BLOCK | idle DURATION |
// role
//
// Against a sharded installation, pass the full authority address book
// instead of -server:
//
//	tankcli -shards "1=127.0.0.1:7001,2=127.0.0.1:7002" -disks "..." stat /hello.txt
//
// The client then runs one protocol instance per authority and routes
// each operation by the same hash placement the servers use; mv between
// paths owned by different authorities exercises the cross-shard
// handoff.
//
// Against a replicated authority (a group of tankds started with
// -replicas), pass the group's address book; the client dials every
// member and follows ErrNotActive redirects to whichever replica holds
// the authority lease, so kill -9 on the active server only stalls
// operations for the bounded takeover window:
//
//	tankcli -replicas "1=127.0.0.1:7001,101=127.0.0.1:7002,201=127.0.0.1:7003" \
//	        -disks "..." role
//
// The role command asks the currently-targeted replica of the first
// authority for its negotiation state: passive, candidate, or active, the
// last PaxosLease ballot it touched, and who it believes is active.
//
// Every command runs on the node's blocking client (ClientNode.Sync),
// which routes each call exactly as the node does and gives an operation
// 30 s before it fails with ErrStale.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/rpcnet"
	"repro/internal/trace"
)

func main() {
	var (
		serverAddr = flag.String("server", "127.0.0.1:7001", "tankd control address")
		shardsFlag = flag.String("shards", "", "sharded authority address book: id=addr,id=addr,... (overrides -server)")
		replFlag   = flag.String("replicas", "", "replicated authority address book: id=addr,id=addr,... — one group's members; the client follows the active replica (overrides -server)")
		disksFlag  = flag.String("disks", "", "SAN address book: id=addr,id=addr,...")
		id         = flag.Int("id", 10, "this client's node id")
		tau        = flag.Duration("tau", 30*time.Second, "lease period τ (must match tankd)")
		eps        = flag.Float64("eps", 0.05, "rate bound ε (must match tankd)")
		tracing    = flag.Bool("trace", false, "log lease-lifecycle events to stderr")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		log.Fatal("usage: tankcli [flags] COMMAND ARGS...\ncommands: mkdir create ls stat rm mv write read idle role")
	}

	diskAddrs, err := rpcnet.ParseAddrBook(*disksFlag)
	if err != nil {
		log.Fatalf("-disks: %v", err)
	}
	cfg := core.DefaultConfig()
	cfg.Tau = *tau
	cfg.Bound.Eps = *eps

	var opts []rpcnet.Option
	if *tracing {
		opts = append(opts, rpcnet.WithTracer(trace.New(trace.NewLogf(log.Printf))))
	}

	// Under -shards, placement is the topology's default: hash over the
	// sorted authority IDs, the map every tankd derives from the same book.
	topo := rpcnet.Topology{Server: 1, ServerAddr: *serverAddr, Disks: diskAddrs}
	if err := topo.AddBooks(msg.None, *shardsFlag, *replFlag); err != nil {
		log.Fatal(err)
	}
	node, err := rpcnet.StartClientNode(rpcnet.NodeSpec{ID: msg.NodeID(*id), Topo: topo},
		client.Config{Core: cfg}, opts...)
	if err != nil {
		log.Fatal(err)
	}
	if err := node.Start(0); err != nil {
		node.Close()
		log.Fatal(err)
	}
	fmt.Printf("registered as n%d (authorities: %d)\n", *id, len(node.Router.Subs()))
	cli := &cli{node: node, sc: node.Sync(opTimeout), out: os.Stdout}
	err = cli.run(flag.Args())
	// A clean exit, whatever the command's outcome: Close flushes and gives
	// the locks back, so the next client does not wait out this one's
	// lease (log.Fatal would skip a deferred call).
	node.Close()
	if err != nil {
		log.Fatal(err)
	}
}

// opTimeout bounds each operation of a command.
const opTimeout = 30 * time.Second

// cli runs one command on a started node and prints its result to out.
type cli struct {
	node *rpcnet.ClientNode
	sc   *client.SyncClient
	out  io.Writer
}

func (c *cli) run(args []string) error {
	cmd, rest := args[0], args[1:]
	need := func(n int) error {
		if len(rest) < n {
			return fmt.Errorf("%s needs %d argument(s)", cmd, n)
		}
		return nil
	}
	switch cmd {
	case "mkdir", "create":
		if err := need(1); err != nil {
			return err
		}
		_, err := c.sc.Create(rest[0], cmd == "mkdir")
		return err

	case "ls":
		if err := need(1); err != nil {
			return err
		}
		_, attr, err := c.sc.Open(rest[0], false, false)
		if err != nil {
			return err
		}
		// Inode numbers are per authority: ask the one the path lives on.
		entries, err := c.sc.Owner(rest[0]).Readdir(attr.Ino)
		if err != nil {
			return err
		}
		for _, e := range entries {
			kind := "f"
			if e.IsDir {
				kind = "d"
			}
			fmt.Fprintf(c.out, "%s %8v %s\n", kind, e.Ino, e.Name)
		}
		return nil

	case "stat":
		if err := need(1); err != nil {
			return err
		}
		attr, err := c.sc.Lookup(rest[0])
		if err != nil {
			return err
		}
		fmt.Fprintf(c.out, "ino=%v dir=%v size=%d version=%d nlink=%d\n",
			attr.Ino, attr.IsDir, attr.Size, attr.Version, attr.Nlink)
		return nil

	case "rm":
		if err := need(1); err != nil {
			return err
		}
		return c.sc.Unlink(rest[0])

	case "mv":
		if err := need(2); err != nil {
			return err
		}
		// Routed to the authority owning the OLD path; when the new path
		// hashes to a different authority the servers run the cross-shard
		// handoff and this call returns once the file lives at its new
		// home.
		if err := c.sc.Rename(rest[0], rest[1]); err != nil {
			return err
		}
		fmt.Fprintf(c.out, "moved %s -> %s\n", rest[0], rest[1])
		return nil

	case "write":
		if err := need(3); err != nil {
			return err
		}
		idx, err := strconv.ParseUint(rest[1], 10, 64)
		if err != nil {
			return err
		}
		h, _, err := c.sc.Open(rest[0], true, true)
		if err != nil {
			return err
		}
		if err := c.sc.WriteAt(h, idx, []byte(rest[2])); err != nil {
			return err
		}
		if err := c.sc.SyncAll(); err != nil {
			return err
		}
		fmt.Fprintf(c.out, "wrote %d bytes to %s block %d (flushed)\n", len(rest[2]), rest[0], idx)
		return nil

	case "read":
		if err := need(2); err != nil {
			return err
		}
		idx, err := strconv.ParseUint(rest[1], 10, 64)
		if err != nil {
			return err
		}
		h, _, err := c.sc.Open(rest[0], false, false)
		if err != nil {
			return err
		}
		data, err := c.sc.ReadAt(h, idx)
		if err != nil {
			return err
		}
		fmt.Fprintf(c.out, "%s\n", strings.TrimRight(string(data), "\x00"))
		return nil

	case "idle":
		if err := need(1); err != nil {
			return err
		}
		d, err := time.ParseDuration(rest[0])
		if err != nil {
			return err
		}
		// Demonstrate keep-alives: touch a file, then idle. The client's
		// lease machinery preserves the cache with NULL messages.
		h, _, err := c.sc.Open("/idle-demo", true, true)
		if err != nil {
			return err
		}
		if err := c.sc.WriteAt(h, 0, []byte("cached")); err != nil {
			return err
		}
		fmt.Fprintf(c.out, "idling %v with cached state...\n", d)
		time.Sleep(d)
		// The registry's instruments are atomic: read them from here.
		id := c.node.Client.ID()
		fmt.Fprintf(c.out, "keep-alives sent: %d, lease expiries: %d\n",
			c.node.Reg.CounterValue(fmt.Sprintf("client.%v.lease.keepalives", id)),
			c.node.Reg.CounterValue(fmt.Sprintf("client.%v.lease.expiries", id)))
		return nil

	case "role":
		// Ask the replica the channel currently targets — after a
		// takeover that is whoever the redirects settled on — for its
		// negotiation state. Passive replicas answer too: the query is
		// lease-neutral and served before registration checks.
		info, err := c.sc.ReplicaInfo()
		if err != nil {
			return err
		}
		fmt.Fprintf(c.out, "role=%s ballot=%d active=%v\n", msg.RoleName(info.Role), info.Ballot, info.Active)
		return nil

	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}
