package shard_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/msg"
	"repro/internal/trace"
)

// TestHandoffSingleOwner is the safety property of the handoff protocol
// under fire: whatever fails mid-migration — the source crashing, the
// destination crashing, or the server-to-server link partitioning — and
// whenever it fails relative to the handshake, the file ends up owned by
// EXACTLY one shard. Never zero (a lost answer leaves the source owner),
// never two (the destination's ledger deduplicates retransmissions and
// the source unlinks only after the destination durably owns).
//
// The fault is injected at a sweep of delays spanning the handshake's
// message flights (control latency is 200–800µs per hop), so every
// protocol point — before the export, migrate in flight, answer in
// flight, after settlement — gets hit across the matrix.
func TestHandoffSingleOwner(t *testing.T) {
	delays := []time.Duration{
		0,
		200 * time.Microsecond,
		400 * time.Microsecond,
		700 * time.Microsecond,
		time.Millisecond,
		2 * time.Millisecond,
		5 * time.Millisecond,
		// Past the first retransmission interval (200ms).
		210 * time.Millisecond,
	}
	faults := []struct {
		name   string
		inject func(inst *cluster.Cluster)
		heal   func(inst *cluster.Cluster)
	}{
		{
			name:   "partition-servers",
			inject: func(inst *cluster.Cluster) { inst.IsolateServers(0, 1) },
			heal:   func(inst *cluster.Cluster) { inst.HealControl() },
		},
		{
			name:   "crash-source",
			inject: func(inst *cluster.Cluster) { inst.CrashServer(0) },
			heal:   func(inst *cluster.Cluster) { inst.RestartServer(0) },
		},
		{
			name:   "crash-dest",
			inject: func(inst *cluster.Cluster) { inst.CrashServer(1) },
			heal:   func(inst *cluster.Cluster) { inst.RestartServer(1) },
		},
	}
	for _, f := range faults {
		for _, d := range delays {
			t.Run(fmt.Sprintf("%s/at=%v", f.name, d), func(t *testing.T) {
				runHandoffFault(t, f.inject, f.heal, d)
			})
		}
	}
}

// lookupRetry resolves path on node i, retrying across the transient
// ErrStale a rejoining sub-client surfaces after its authority restarts.
func lookupRetry(t *testing.T, inst *cluster.Cluster, i int, path string) msg.Errno {
	t.Helper()
	for try := 0; ; try++ {
		errno := lookupErr(t, inst, i, path)
		if errno != msg.ErrStale {
			return errno
		}
		if try > 30 {
			t.Fatalf("lookup %s stale after 30 retries", path)
		}
		inst.RunFor(time.Second)
	}
}

func runHandoffFault(t *testing.T, inject, heal func(*cluster.Cluster), at time.Duration) {
	ring := trace.NewRing(1 << 16)
	opts := subtreeOptions()
	opts.Seed = int64(at) + 7
	opts.Tracer = trace.New(ring)
	inst := cluster.New(opts)
	inst.Start()

	h, _ := inst.MustOpen(0, "/s0/victim", true, true)
	if errno := inst.Write(0, h, 0, block('V')); errno != msg.OK {
		t.Fatal(errno)
	}
	inst.Sync(0)
	releaseLock(t, inst, 0, "/s0/victim")

	// Issue the rename async, let the handshake run for `at`, then pull
	// the plug.
	settled := false
	var renErr msg.Errno
	inst.Clients[0].Rename("/s0/victim", "/s1/victim", func(e msg.Errno) {
		renErr, settled = e, true
	})
	inst.RunFor(at)
	inject(inst)
	// Let the failure do its damage (retransmissions into a dead peer,
	// client retries into a dead authority), then recover.
	inst.RunFor(5 * time.Second)
	heal(inst)

	// The client's rename must settle: the export is durable, the migrate
	// retransmits until answered, and the client's own retry re-attaches
	// to a re-driven handoff after a source restart.
	deadline := inst.Sched.Now().Add(4 * time.Minute)
	inst.Sched.RunWhile(func() bool { return !settled && !inst.Sched.Now().After(deadline) })
	if !settled {
		t.Fatal("rename never settled after recovery")
	}
	// A lease lost to the crash cancels the in-flight op with ErrStale;
	// that is the client surfacing "outcome unknown" for the application
	// to retry — exactly-once is the HANDOFF's guarantee (the durable
	// export/ledger pair), not the client RPC's. Retry like one.
	for try := 0; renErr == msg.ErrStale; try++ {
		if try > 30 {
			t.Fatal("rename still unsettled after 30 retries")
		}
		inst.RunFor(time.Second)
		renErr = inst.Rename(0, "/s0/victim", "/s1/victim")
	}
	// OK: this attempt drove the handoff. ErrNoEnt: a prior attempt
	// already moved the object and the retry found no source — resolved
	// below by the ownership check (the new name must exist).
	if renErr != msg.OK && renErr != msg.ErrNoEnt {
		t.Fatalf("rename settled with %v", renErr)
	}

	// Exactly one owner, asserted from the namespace: the old name is
	// gone, the new name resolves — from a node that took no part in the
	// rename.
	oldErr := lookupRetry(t, inst, 1, "/s0/victim")
	newErr := lookupRetry(t, inst, 1, "/s1/victim")
	if oldErr != msg.ErrNoEnt || newErr != msg.OK {
		t.Fatalf("ownership after recovery: old=%v new=%v (want ErrNoEnt/OK)", oldErr, newErr)
	}

	// And from the trace: retransmissions and replays notwithstanding,
	// the destination installed the object exactly once, and the source
	// retired its copy only after that install.
	events := ring.Events()
	src, dst := cluster.ServerID(0), cluster.ServerID(1)
	if n := events.Count(trace.ByNode(dst), trace.ByType(trace.EvShardInstall)); n != 1 {
		t.Fatalf("object installed %d times, want exactly 1", n)
	}
	if err := events.Precedes(
		trace.And(trace.ByNode(dst), trace.ByType(trace.EvShardInstall)),
		trace.And(trace.ByNode(src), trace.ByType(trace.EvShardDone))); err != nil {
		t.Fatalf("install/done ordering under fault: %v", err)
	}

	// The file's data survived the move.
	rh, _ := inst.MustOpen(1, "/s1/victim", false, false)
	if data, errno := inst.Read(1, rh, 0); errno != msg.OK || data[0] != 'V' {
		t.Fatalf("data lost in handoff: %v", errno)
	}
}
