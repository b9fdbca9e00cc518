package main

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/msg"
	"repro/internal/rpcnet"
	"repro/internal/server"
	"repro/internal/shard"
)

// startTwoAuthorities boots, over loopback TCP, what two `tankd -shards`
// and their disks would: two lease authorities (IDs 1 and 2) with a disk
// each, the namespace split by the topology's default hash placement.
// Each allocates from the disk it hosts and knows the other's from its
// -san-disks, as tankd starts it. It returns the topology a `tankcli
// -shards` would build from the same address book.
func startTwoAuthorities(t *testing.T, cfg core.Config) rpcnet.Topology {
	t.Helper()
	servers := map[msg.NodeID]string{}
	for _, id := range []msg.NodeID{1, 2} {
		l, err := net.Listen("tcp", rpcnet.Loopback())
		if err != nil {
			t.Fatal(err)
		}
		servers[id] = l.Addr().String()
		l.Close()
	}
	topo := rpcnet.Topology{Servers: servers, Disks: map[msg.NodeID]string{}}
	for si := 0; si < 2; si++ {
		id := msg.NodeID(1000 + si)
		topo.Disks[id] = rpcnet.Loopback()
		dn, err := rpcnet.StartDiskNode(rpcnet.NodeSpec{ID: id, Topo: topo}, disk.Config{Blocks: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(dn.Close)
		topo.Disks[id] = dn.Addr.String()
	}
	for si, id := range []msg.NodeID{1, 2} {
		stopo := topo
		stopo.Server, stopo.ServerAddr = id, servers[id]
		sn, err := rpcnet.StartServerNode(rpcnet.NodeSpec{ID: id, Topo: stopo}, server.Config{
			Core: cfg, Disks: map[msg.NodeID]uint64{msg.NodeID(1000 + si): 1 << 10},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sn.Close)
	}
	return topo
}

// runCLI runs one command as a tankcli process does: on a new client
// node that registers, runs it, and exits cleanly, giving its locks back.
// It returns what the command printed and its error.
func runCLI(t *testing.T, id msg.NodeID, topo rpcnet.Topology, cfg core.Config, args ...string) (string, error) {
	t.Helper()
	node, err := rpcnet.StartClientNode(rpcnet.NodeSpec{ID: id, Topo: topo}, client.Config{Core: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err := node.Start(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = (&cli{node: node, sc: node.Sync(10 * time.Second), out: &out}).run(args)
	return out.String(), err
}

// TestCommandsAcrossTwoAuthorities runs every file-system command of
// tankcli, each on a node of its own, against two authorities: a
// directory and a file on the second authority — so a listing must be
// asked of the directory's owner, not of the first authority — a move to
// a name the first authority owns, and the removal there.
func TestCommandsAcrossTwoAuthorities(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Tau = 3 * time.Second
	cfg.RetryInterval = 100 * time.Millisecond
	topo := startTwoAuthorities(t, cfg)

	// Names by their owner under the placement the client derives: a
	// directory, a file in it on the same authority (so the directory's
	// listing there shows it) and a name on the other one.
	place := shard.Hash{N: 2}
	owner := func(p string) int { i, _ := place.Owner(p); return i }
	pick := func(format string, want int) string {
		for i := 0; ; i++ {
			if p := fmt.Sprintf(format, i); owner(p) == want {
				return p
			}
		}
	}
	dir := pick("/dir%d", 1)
	file := pick(dir+"/f%d", 1)
	moved := pick("/moved%d", 0)
	name := file[len(dir)+1:]

	id := msg.NodeID(10)
	cmd := func(args ...string) (string, error) {
		id++
		return runCLI(t, id, topo, cfg, args...)
	}
	run := func(want string, args ...string) {
		t.Helper()
		out, err := cmd(args...)
		if err != nil {
			t.Fatalf("%s: %v", strings.Join(args, " "), err)
		}
		if !strings.Contains(out, want) {
			t.Fatalf("%s printed %q, want it to contain %q", strings.Join(args, " "), out, want)
		}
	}
	run("", "mkdir", dir)
	run("dir=true", "stat", dir)
	run("wrote 15 bytes to "+file+" block 0 (flushed)", "write", file, "0", "two authorities")
	run("two authorities\n", "read", file, "0")
	run("dir=false size=15 ", "stat", file)
	run(" "+name+"\n", "ls", dir)
	run("moved "+file+" -> "+moved, "mv", file, moved)
	if _, err := cmd("stat", file); err != msg.ErrNoEnt {
		t.Fatalf("stat of the old name after mv: %v, want ErrNoEnt", err)
	}
	if out, err := cmd("ls", dir); err != nil || strings.Contains(out, name) {
		t.Fatalf("listing of %s after mv: %q (%v), want no %s", dir, out, err, name)
	}
	run("two authorities\n", "read", moved, "0")
	run("", "rm", moved)
	if _, err := cmd("stat", moved); err != msg.ErrNoEnt {
		t.Fatalf("stat after rm: %v, want ErrNoEnt", err)
	}
}
