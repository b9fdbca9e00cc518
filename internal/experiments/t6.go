package experiments

import (
	"bytes"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/msg"
	"repro/internal/stats"
)

// RunT6 reproduces §6's slow-computer analysis: a client whose clock rate
// violates the synchronization bound measures its lease period far too
// slowly, so its phase-4 flush arrives AFTER the server's τ(1+ε) steal.
// Without fencing, that late write lands on the disk and corrupts the new
// holder's data; with the fence (the paper's backstop) the disk rejects
// it. We run both variants and inspect the contended block's final
// content on disk.
func RunT6(p Params) *Result {
	res := &Result{ID: "T6", Title: "slow computers beyond the rate bound (fencing backstop)"}
	res.Table = stats.NewTable("",
		"variant", "late write reached disk", "fenced I/O rejections", "final block content")

	for _, disableFence := range []bool{true, false} {
		name := "lease only (fence disabled)"
		if !disableFence {
			name = "lease + fence (paper)"
		}
		corrupted, rejections, content := slowClientScenario(p, disableFence)
		res.Table.AddRow(name, yesNo(corrupted), stats.FmtN(rejections), content)
		key := "fence"
		if disableFence {
			key = "nofence"
		}
		res.Metric(key+".late_write_corrupted", boolToF(corrupted))
		res.Metric(key+".fenced_rejections", float64(rejections))
	}
	res.Table.AddNote("slow client clock rate 0.55 vs bound ε=0.05: its τ runs ~1.8x slow in real time")
	return res
}

func slowClientScenario(p Params, disableFence bool) (corrupted bool, rejections uint64, content string) {
	opts := baseOptions(p.Seed)
	opts.Clients = 2
	opts.ClockSkew = false
	// Client 0's clock violates the bound badly; server and client 1 run
	// at nominal rate.
	opts.ClientRates = []float64{0.55, 1.0}
	opts.ServerRate = 1.0
	opts.DisableFence = disableFence
	cl := cluster.New(opts)
	cl.Start()
	tau := opts.Core.Tau

	// Slow client holds the lock with dirty data.
	h0, _ := cl.MustOpen(0, "/slow", true, true)
	mustOK(cl.Write(0, h0, 0, blockData('O'))) // old committed content
	mustOK(cl.Sync(0))
	mustOK(cl.Write(0, h0, 0, blockData('Y'))) // dirty: will flush LATE

	cl.IsolateClient(0)

	// Survivor takes the lock after the steal (τ(1+ε) on the server's
	// clock — but the slow client's own lease has NOT yet expired) and
	// writes fresh data.
	h1, _, errno := cl.Open(1, "/slow", true, false)
	mustOK(errno)
	granted := false
	cl.Clients[1].Write(h1, 0, blockData('Z'), func(e msg.Errno) { granted = e == msg.OK })
	deadline := cl.Sched.Now().Add(3 * tau)
	cl.Sched.RunWhile(func() bool { return !granted && !cl.Sched.Now().After(deadline) })
	if !granted {
		panic("t6: survivor never granted")
	}
	mustOK(cl.Sync(1))

	// Now run long enough for the slow client's phases to reach phase 4
	// and attempt the late flush (its τ takes ~1.8x real time).
	cl.RunFor(3 * tau)

	// Inspect the contended block on disk.
	ino := inoOf(cl, "/slow")
	ref := blockRefOf(cl, ino, 0)
	for _, d := range cl.Disks {
		if d.ID() == ref.Disk {
			data, _, ok := d.PeekBlock(ref.Num)
			if !ok {
				content = "(missing)"
				break
			}
			switch {
			case bytes.Equal(data, blockData('Z')):
				content = "survivor's Z (correct)"
			case bytes.Equal(data, blockData('Y')):
				content = "slow client's late Y (CORRUPTED)"
				corrupted = true
			default:
				content = fmt.Sprintf("unexpected %q", data[0])
			}
		}
	}
	rejections = cl.Reg.CounterValue(fmt.Sprintf("client.%v.fenced_io", cluster.ClientID(0)))
	return corrupted, rejections, content
}

func inoOf(cl *cluster.Cluster, path string) msg.ObjectID {
	in, errno := cl.Shards[0].Server.Store().Lookup(path)
	if errno != msg.OK {
		panic("t6: lookup failed")
	}
	return in.Ino
}

func blockRefOf(cl *cluster.Cluster, ino msg.ObjectID, idx int) msg.BlockRef {
	in, errno := cl.Shards[0].Server.Store().Get(ino)
	if errno != msg.OK || idx >= in.Map.Len() {
		panic("t6: block map")
	}
	return in.Map.At(uint64(idx))
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func boolToF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
