package client_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/msg"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// A compliance that outlives the lease must leave nothing behind. The
// flush and the trim of a demand's compliance are asynchronous; a lease
// that runs out under them clears every lock and then fires their
// callbacks, and the continuation used to write the demanded mode back:
// a Shared lock, and a LockActive at the oracle, for a client that was no
// longer registered — it then read under a lock nobody had granted.
//
// The holder's requests stop reaching the server before the demand goes
// out, so whichever step the compliance has reached stays in flight until
// the lease is over: the flush, whose acknowledgments the disks' replies
// never bring, or the trim's Truncate, which gives back a block granted
// ahead of the writer.
func TestComplianceOutlivingLeaseHoldsNothing(t *testing.T) {
	for name, tc := range map[string]struct {
		flushHeld bool
		blocks    uint64 // 3 blocks are written into a map of 4: the trim has one to give back
	}{
		"flush in flight": {flushHeld: true, blocks: 1},
		"trim in flight":  {flushHeld: false, blocks: 3},
	} {
		t.Run(name, func(t *testing.T) {
			opts := cluster.DefaultOptions()
			ring := trace.NewRing(1 << 12)
			opts.Tracer = trace.New(ring)
			cl := cluster.New(opts)
			cl.Start()
			tau := opts.Core.Tau
			c0 := cl.Clients[0].Sub(0)

			old := bytes.Repeat([]byte{'o'}, cluster.BlockSize)
			h0, attr := cl.MustOpen(0, "/f", true, true)
			for idx := uint64(0); idx < tc.blocks; idx++ {
				if e := cl.Write(0, h0, idx, old); e != msg.OK {
					t.Fatalf("write %d: %v", idx, e)
				}
			}
			h1, _ := cl.MustOpen(1, "/f", true, false)

			// The demand reaches the holder; nothing the holder says reaches
			// the server.
			cl.Control.BlockDir(cluster.ClientID(0), cluster.ServerID(0))
			if tc.flushHeld {
				for _, d := range cl.Disks {
					cl.SAN.BlockDir(d.ID(), cluster.ClientID(0))
				}
			}
			cl.Clients[1].Read(h1, 0, func([]byte, msg.Errno) {})
			cl.RunFor(tau / 10)
			events := ring.Events()
			flushing := events.Count(trace.ByNode(cluster.ClientID(0)), trace.ByType(trace.EvFlushStart), trace.ByNote("demand"))
			flushed := events.Count(trace.ByNode(cluster.ClientID(0)), trace.ByType(trace.EvFlushDone), trace.ByNote("demand"))
			if flushing != 1 || (flushed == 0) != tc.flushHeld || c0.HeldMode(attr.Ino) != msg.LockExclusive {
				t.Fatalf("test is vacuous: %d compliance flushes started, %d done, the holder holds %v",
					flushing, flushed, c0.HeldMode(attr.Ino))
			}

			cl.RunFor(2 * tau)
			if n := cl.Reg.CounterValue("client.n10.lease.expiries"); n != 1 {
				t.Fatalf("test is vacuous: the holder's lease expired %d times", n)
			}
			if held := c0.HeldMode(attr.Ino); held != msg.LockNone {
				t.Fatalf("an expired client holds %v: the compliance that outlived its lease wrote the lock back", held)
			}

			// Had anything been reported as held — here or to the oracle —
			// this is where it would show: the other client writes under an
			// exclusive lock the server granted without asking, and the old
			// holder must ask for the block back.
			cl.HealControl()
			cl.SAN.Heal()
			cl.RunFor(tau / 10)
			fresh := bytes.Repeat([]byte{'n'}, cluster.BlockSize)
			if e := cl.Write(1, h1, 0, fresh); e != msg.OK {
				t.Fatalf("the other client's write: %v", e)
			}
			h0, _ = cl.MustOpen(0, "/f", false, false)
			if got, e := cl.Read(0, h0, 0); e != msg.OK || !bytes.Equal(got, fresh) {
				t.Fatalf("the old holder reads %.4q… (%v), want the block written since", got, e)
			}
			if held := cl.Shards[0].Server.Locks().Held(cluster.ClientID(0), attr.Ino); held != msg.LockShared {
				t.Fatalf("the server records %v for the old holder, want the shared lock it just granted", held)
			}
			cl.FinalCheck()
			if got := cl.Violations(); len(got) != 0 {
				t.Fatalf("violations: %v", got)
			}
		})
	}
}

// A flush groups its pages by disk in place: disks in the order they
// first appear among the dirty pages — objects by inode number, each
// object's pages by index — each disk's pages in that order, cut into
// batches of at most FlushBatch. Each of the two files here is written
// from its first block to its last, and each of its grants (1, 1, 2, 4
// and 8 blocks) comes from the other disk, so the flush has to gather
// each disk's pages from across both files. The sequence of DiskWrite
// and DiskWriteV must be the one that a map from disk to pages and a
// list of disks in first-seen order produced before the grouping moved
// into the flush's own slice. The SAN delivers in send order (no jitter),
// so what the disks receive is what the client sent.
func TestFlushGroupsPagesByDisk(t *testing.T) {
	opts := cluster.DefaultOptions()
	opts.Disks = 2
	opts.FlushBatch = 3
	opts.NoChecker = true
	opts.SAN.DelayMax = opts.SAN.DelayMin
	cl := cluster.New(opts)
	cl.Start()
	const pages = 16
	paths := []string{"/a", "/b"}
	data := make([]byte, cluster.BlockSize)
	// A clean block first, so that the dirty pages start on the disk
	// with the higher ID: first appearance, not ID, orders the batches.
	h, _ := cl.MustOpen(0, "/clean", true, true)
	if e := cl.Write(0, h, 0, data); e != msg.OK || cl.Sync(0) != msg.OK {
		t.Fatalf("write /clean: %v", e)
	}
	for _, p := range paths {
		h, _ := cl.MustOpen(0, p, true, true)
		for idx := uint64(0); idx < pages; idx++ {
			if e := cl.Write(0, h, idx, data); e != msg.OK {
				t.Fatalf("%s: write %d: %v", p, idx, e)
			}
		}
	}

	// The dirty pages in the order the flush collects them: the files
	// were created in order, so their inode numbers ascend with paths.
	var dirty []msg.BlockRef
	for _, p := range paths {
		in, errno := cl.Shards[0].Store.Lookup(p)
		if errno != msg.OK || in.Map.Len() < pages {
			t.Fatalf("%s: %v, %d blocks placed", p, errno, in.Map.Len())
		}
		dirty = append(dirty, in.Map.AppendRefs(nil)[:pages]...)
	}
	byDisk := make(map[msg.NodeID][]msg.BlockRef)
	var order []msg.NodeID
	for _, ref := range dirty {
		if _, ok := byDisk[ref.Disk]; !ok {
			order = append(order, ref.Disk)
		}
		byDisk[ref.Disk] = append(byDisk[ref.Disk], ref)
	}
	if len(order) != 2 || order[0] < order[1] || dirty[1].Disk == dirty[0].Disk || dirty[2].Disk != dirty[0].Disk {
		t.Fatalf("test is vacuous: the dirty pages do not alternate between two disks, higher ID first: %v", dirty)
	}
	var want [][]msg.BlockRef
	for _, d := range order {
		for q := byDisk[d]; len(q) > 0; {
			n := min(len(q), opts.FlushBatch)
			want = append(want, q[:n])
			q = q[n:]
		}
	}

	var got [][]msg.BlockRef
	observe := cl.SAN.Observer
	cl.SAN.Observer = func(ev simnet.Event) {
		observe(ev)
		var batch []msg.BlockRef
		switch m := ev.Env.Payload.(type) {
		case *msg.DiskWrite:
			batch = append(batch, msg.BlockRef{Disk: ev.Env.To, Num: m.Block})
		case *msg.DiskWriteV:
			for _, v := range m.Blocks {
				batch = append(batch, msg.BlockRef{Disk: ev.Env.To, Num: v.Block})
			}
		default:
			return
		}
		got = append(got, batch)
	}
	if e := cl.Sync(0); e != msg.OK {
		t.Fatalf("sync: %v", e)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("the flush wrote\n%v\nwant\n%v", got, want)
	}
}
