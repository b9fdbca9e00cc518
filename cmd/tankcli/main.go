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
// The role command asks the currently-targeted replica for its
// negotiation state: passive, candidate, or active, the last PaxosLease
// ballot it touched, and who it believes is active.
package main

import (
	"flag"
	"fmt"
	"log"
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

	topo := rpcnet.Topology{Server: 1, ServerAddr: *serverAddr, Disks: diskAddrs}
	switch {
	case *shardsFlag != "":
		// Placement is the topology's default: hash over the sorted
		// authority IDs, the map every tankd derives from the same book.
		servers, err := rpcnet.ParseAddrBook(*shardsFlag)
		if err != nil {
			log.Fatalf("-shards: %v", err)
		}
		topo = rpcnet.Topology{Servers: servers, Disks: diskAddrs}
	case *replFlag != "":
		members, err := rpcnet.ParseAddrBook(*replFlag)
		if err != nil {
			log.Fatalf("-replicas: %v", err)
		}
		group := rpcnet.ReplicaGroup(members)
		topo.Server = group[0]
		topo.ServerAddr = members[group[0]]
		topo.Servers = members
		topo.ReplicaGroups = map[msg.NodeID][]msg.NodeID{group[0]: group}
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
	cli := &cli{node: node}
	err = cli.run(flag.Args())
	// A clean exit, whatever the command's outcome: Close flushes and gives
	// the locks back, so the next client does not wait out this one's
	// lease (log.Fatal would skip a deferred call).
	node.Close()
	if err != nil {
		log.Fatal(err)
	}
}

type cli struct{ node *rpcnet.ClientNode }

// pick returns the protocol instance that serves path.
func (c *cli) pick(path string) *client.Client {
	sub := c.node.Router.Owner(path)
	if sub == nil {
		log.Fatalf("no authority owns %s", path)
	}
	return sub
}

// do runs fn on the client executor and waits for completion.
func (c *cli) do(fn func(done func())) {
	ch := make(chan struct{})
	c.node.Do(func() { fn(func() { close(ch) }) })
	select {
	case <-ch:
	case <-time.After(30 * time.Second):
		log.Fatal("operation timed out")
	}
}

func (c *cli) open(path string, write, create bool) (msg.Handle, msg.Attr, msg.Errno) {
	var h msg.Handle
	var attr msg.Attr
	var errno msg.Errno
	c.do(func(done func()) {
		c.pick(path).Open(path, write, create, func(gh msg.Handle, a msg.Attr, e msg.Errno) {
			h, attr, errno = gh, a, e
			done()
		})
	})
	return h, attr, errno
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
		var errno msg.Errno
		c.do(func(done func()) {
			c.pick(rest[0]).Create(rest[0], cmd == "mkdir", func(_ msg.Attr, e msg.Errno) {
				errno = e
				done()
			})
		})
		return errno.Or()

	case "ls":
		if err := need(1); err != nil {
			return err
		}
		_, attr, errno := c.open(rest[0], false, false)
		if errno != msg.OK {
			return errno
		}
		var entries []msg.DirEntry
		c.do(func(done func()) {
			c.pick(rest[0]).Readdir(attr.Ino, func(es []msg.DirEntry, e msg.Errno) {
				entries, errno = es, e
				done()
			})
		})
		if errno != msg.OK {
			return errno
		}
		for _, e := range entries {
			kind := "f"
			if e.IsDir {
				kind = "d"
			}
			fmt.Printf("%s %8v %s\n", kind, e.Ino, e.Name)
		}
		return nil

	case "stat":
		if err := need(1); err != nil {
			return err
		}
		var attr msg.Attr
		var errno msg.Errno
		c.do(func(done func()) {
			c.pick(rest[0]).Lookup(rest[0], func(a msg.Attr, e msg.Errno) {
				attr, errno = a, e
				done()
			})
		})
		if errno != msg.OK {
			return errno
		}
		fmt.Printf("ino=%v dir=%v size=%d version=%d nlink=%d\n",
			attr.Ino, attr.IsDir, attr.Size, attr.Version, attr.Nlink)
		return nil

	case "rm":
		if err := need(1); err != nil {
			return err
		}
		var errno msg.Errno
		c.do(func(done func()) {
			c.pick(rest[0]).Unlink(rest[0], func(e msg.Errno) { errno = e; done() })
		})
		return errno.Or()

	case "mv":
		if err := need(2); err != nil {
			return err
		}
		// Routed to the authority owning the OLD path; when the new path
		// hashes to a different authority the servers run the cross-shard
		// handoff and this call returns once the file lives at its new
		// home.
		var errno msg.Errno
		c.do(func(done func()) {
			c.pick(rest[0]).Rename(rest[0], rest[1], func(e msg.Errno) { errno = e; done() })
		})
		if errno == msg.OK {
			fmt.Printf("moved %s -> %s\n", rest[0], rest[1])
		}
		return errno.Or()

	case "write":
		if err := need(3); err != nil {
			return err
		}
		idx, err := strconv.ParseUint(rest[1], 10, 64)
		if err != nil {
			return err
		}
		h, _, errno := c.open(rest[0], true, true)
		if errno != msg.OK {
			return errno
		}
		c.do(func(done func()) {
			c.pick(rest[0]).Write(h, idx, []byte(rest[2]), func(e msg.Errno) { errno = e; done() })
		})
		if errno != msg.OK {
			return errno
		}
		c.do(func(done func()) {
			c.pick(rest[0]).Sync(func(e msg.Errno) { errno = e; done() })
		})
		if errno == msg.OK {
			fmt.Printf("wrote %d bytes to %s block %d (flushed)\n", len(rest[2]), rest[0], idx)
		}
		return errno.Or()

	case "read":
		if err := need(2); err != nil {
			return err
		}
		idx, err := strconv.ParseUint(rest[1], 10, 64)
		if err != nil {
			return err
		}
		h, _, errno := c.open(rest[0], false, false)
		if errno != msg.OK {
			return errno
		}
		var data []byte
		c.do(func(done func()) {
			c.pick(rest[0]).Read(h, idx, func(d []byte, e msg.Errno) { data, errno = d, e; done() })
		})
		if errno != msg.OK {
			return errno
		}
		fmt.Printf("%s\n", strings.TrimRight(string(data), "\x00"))
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
		h, _, errno := c.open("/idle-demo", true, true)
		if errno != msg.OK {
			return errno
		}
		c.do(func(done func()) {
			c.pick("/idle-demo").Write(h, 0, []byte("cached"), func(msg.Errno) { done() })
		})
		fmt.Printf("idling %v with cached state...\n", d)
		time.Sleep(d)
		ch := make(chan [2]uint64, 1)
		c.node.Do(func() {
			ch <- [2]uint64{
				c.node.Reg.CounterValue(fmt.Sprintf("client.%v.lease.keepalives", c.node.Client.ID())),
				c.node.Reg.CounterValue(fmt.Sprintf("client.%v.lease.expiries", c.node.Client.ID())),
			}
		})
		v := <-ch
		fmt.Printf("keep-alives sent: %d, lease expiries: %d\n", v[0], v[1])
		return nil

	case "role":
		// Ask the replica the channel currently targets — after a
		// takeover that is whoever the redirects settled on — for its
		// negotiation state. Passive replicas answer too: the query is
		// lease-neutral and served before registration checks.
		var info msg.ReplicaInfoRes
		var errno msg.Errno
		c.do(func(done func()) {
			c.pick("/").ReplicaInfo(func(i msg.ReplicaInfoRes, e msg.Errno) {
				info, errno = i, e
				done()
			})
		})
		if errno != msg.OK {
			return errno
		}
		fmt.Printf("role=%s ballot=%d active=%v\n", msg.RoleName(info.Role), info.Ballot, info.Active)
		return nil

	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}
