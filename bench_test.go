package storagetank

// The benchmark harness: one Benchmark per figure/table of the paper
// (DESIGN.md §4). Each runs the corresponding experiment end-to-end on
// the deterministic simulator and reports its headline numbers as
// benchmark metrics, so `go test -bench=. -benchmem` regenerates the
// entire evaluation. Micro-benchmarks for the protocol hot paths follow.

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchExperiment runs experiment id b.N times and surfaces the chosen
// metrics in the benchmark output.
func benchExperiment(b *testing.B, id string, metrics ...string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		last = e.Run(experiments.Params{Seed: int64(i + 1), Quick: true})
	}
	for _, m := range metrics {
		if v, ok := last.Metrics[m]; ok {
			b.ReportMetric(v, m)
		}
	}
}

// BenchmarkF1Architecture — Fig 1 / §1.1: direct SAN access vs the
// function-shipping server.
func BenchmarkF1Architecture(b *testing.B) {
	benchExperiment(b, "F1", "speedup_at_max_clients", "funcship.server_data_bytes")
}

// BenchmarkF2Partition — Fig 2 / §2: availability and safety across
// recovery policies under a control-network partition.
func BenchmarkF2Partition(b *testing.B) {
	benchExperiment(b, "F2", "storage-tank.lock_wait_secs", "fence-only.violations")
}

// BenchmarkF3Renewal — Fig 3 / Thm 3.1: renewal from tC1 under
// rate-synchronized clocks.
func BenchmarkF3Renewal(b *testing.B) {
	benchExperiment(b, "F3", "violations.eps=0.05", "violations.outside_bound")
}

// BenchmarkF4Phases — Fig 4 / §3.2: the four-phase lease period of an
// isolated client.
func BenchmarkF4Phases(b *testing.B) {
	benchExperiment(b, "F4", "dirty_at_expiry", "steal_after_expiry_secs")
}

// BenchmarkF5NACK — Fig 5 / §3.3: NACK vs silent-ignore.
func BenchmarkF5NACK(b *testing.B) {
	benchExperiment(b, "F5", "nack.msgs_after_heal", "ignore.msgs_after_heal")
}

// BenchmarkT1Overhead — §3-5: lease overhead vs V leases, Frangipani
// heartbeats, NFS polling.
func BenchmarkT1Overhead(b *testing.B) {
	benchExperiment(b, "T1",
		"storage-tank.active_lease_msgs_per_tau",
		"frangipani.active_lease_msgs_per_tau",
		"v-leases.server_lease_bytes_max")
}

// BenchmarkT2Availability — §1.2/§2: unavailability window vs τ.
func BenchmarkT2Availability(b *testing.B) {
	benchExperiment(b, "T2", "storage-tank.wait_secs.tau=5s", "storage-tank.wait_secs.tau=20s")
}

// BenchmarkT3Safety — §2.1: violations under failure injection.
func BenchmarkT3Safety(b *testing.B) {
	benchExperiment(b, "T3",
		"storage-tank.total_violations",
		"fence-only.total_violations",
		"naive-steal.total_violations")
}

// BenchmarkT4Dlock — §5: GFS dlocks vs logical locks.
func BenchmarkT4Dlock(b *testing.B) {
	benchExperiment(b, "T4", "gfs-dlock.san_msgs_per_op", "storage-tank.san_msgs_per_op")
}

// BenchmarkT5Opportunistic — §3.1: keep-alives vs client activity.
func BenchmarkT5Opportunistic(b *testing.B) {
	benchExperiment(b, "T5")
}

// BenchmarkT6SlowClient — §6: the fencing backstop against clocks beyond
// the rate bound.
func BenchmarkT6SlowClient(b *testing.B) {
	benchExperiment(b, "T6", "nofence.late_write_corrupted", "fence.fenced_rejections")
}

// BenchmarkT7ServerRecovery — §6: lock reassertion after a server
// failure vs the full lease recovery.
func BenchmarkT7ServerRecovery(b *testing.B) {
	benchExperiment(b, "T7", "reassert.outage_secs", "norecover.outage_secs")
}

// BenchmarkT8ShardCluster — §4/Fig 1: per-pair lease granularity across a
// server cluster.
func BenchmarkT8ShardCluster(b *testing.B) {
	benchExperiment(b, "T8", "unaffected_shard_errors", "partitioned_shard_errors")
}

// BenchmarkA1PhaseBoundaries — ablation of the phase split (DESIGN §5).
func BenchmarkA1PhaseBoundaries(b *testing.B) {
	benchExperiment(b, "A1", "dirty_at_expiry.p3=0.98")
}

// BenchmarkA2RetryPolicy — ablation of failure detection under loss.
func BenchmarkA2RetryPolicy(b *testing.B) {
	benchExperiment(b, "A2", "false_suspicions.retries=0", "false_suspicions.retries=3")
}

// --- protocol hot-path micro-benchmarks -------------------------------------

// BenchmarkAuthorityAllow measures the server's entire per-message lease
// cost during normal operation: one lookup in an empty map.
func BenchmarkAuthorityAllow(b *testing.B) {
	s := sim.NewScheduler(1)
	auth := core.NewAuthority(core.DefaultConfig(), s.NewClock(1, 0), nopSteal{}, core.Env{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !auth.Allow(msg.NodeID(i%1024 + 2)) {
			b.Fatal("refused")
		}
	}
}

type nopSteal struct{}

func (nopSteal) StealLocks(msg.NodeID) {}

// BenchmarkLeaseRenewal measures the client-side cost of an opportunistic
// renewal. A renewal in phase 1 only moves the phase boundary later, so
// the timer the first renewal armed serves them all: timers/op is 0.
func BenchmarkLeaseRenewal(b *testing.B) {
	s := sim.NewScheduler(1)
	clock := &sim.CountingClock{Clock: s.NewClock(1, 0)}
	lease := core.NewLeaseClient(core.DefaultConfig(), clock, nopActions{}, core.Env{})
	lease.Renewed(0)
	armed := clock.Armed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lease.Renewed(sim.Time(i + 1)) // strictly increasing tC1
	}
	b.StopTimer()
	b.ReportMetric(float64(clock.Armed()-armed)/float64(b.N), "timers/op")
}

type nopActions struct{}

func (nopActions) SendKeepAlive()              {}
func (nopActions) Quiesce()                    {}
func (nopActions) Flush(done func())           { done() }
func (nopActions) Expired()                    {}
func (nopActions) PhaseChange(_, _ core.Phase) {}

// BenchmarkSchedulerEvents measures the simulator's event throughput.
func BenchmarkSchedulerEvents(b *testing.B) {
	s := sim.NewScheduler(1)
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < b.N {
			s.After(time.Microsecond, fn)
		}
	}
	b.ResetTimer()
	s.After(0, fn)
	s.Run()
}

// BenchmarkReplyCache measures at-most-once admission on the request
// fast path.
func BenchmarkReplyCache(b *testing.B) {
	rc := core.NewReplyCache(128, nil, "")
	reply := &msg.Reply{Status: msg.ACK}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := msg.ReqID(i)
		if d, _ := rc.Admit(3, id); d != core.Execute {
			b.Fatal("dup")
		}
		rc.Complete(3, id, reply)
	}
}

// BenchmarkClusterWritePath measures a full client write through the
// simulated installation (lock cached, cache hit: the common case).
func BenchmarkClusterWritePath(b *testing.B) {
	cl := NewClusterWith(WithoutChecker())
	cl.Start()
	h, _ := cl.MustOpen(0, "/bench", true, true)
	data := make([]byte, BlockSize)
	if errno := cl.Write(0, h, 0, data); errno != msg.OK {
		b.Fatal(errno)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if errno := cl.Write(0, h, 0, data); errno != msg.OK {
			b.Fatal(errno)
		}
	}
}

// BenchmarkEndToEndSimSecond measures how fast the simulator advances one
// simulated second of a busy 3-client installation.
func BenchmarkEndToEndSimSecond(b *testing.B) {
	cl := NewClusterWith(WithoutChecker())
	cl.Start()
	PopulateWorkload(cl, quickWorkload())
	for i := range cl.Clients {
		NewWorkloadRunner(cl, i, quickWorkload(), int64(i)).Start()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.RunFor(time.Second)
	}
}

// --- vectored write-back benchmarks -----------------------------------------

// benchFlushDrain measures a client draining 64 dirty pages to the SAN:
// how many SAN messages one flush costs and how long the drain takes in
// simulated time. batch=0 is the default vectored write-back; batch=1
// restores the legacy per-page path the vectoring replaced.
func benchFlushDrain(b *testing.B, batch int) {
	const dirtyPages = 64
	cl := NewClusterWith(WithoutChecker(), WithFlushBatch(batch))
	cl.Start()
	sc := cl.SyncClient(0)
	h, _, err := sc.Open("/drain", true, true)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, BlockSize)
	var msgs, drain float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := 0; p < dirtyPages; p++ {
			if err := sc.WriteAt(h, uint64(p), data); err != nil {
				b.Fatal(err)
			}
		}
		before := cl.Reg.CounterValue("net.san.sent.san-io")
		start := cl.Sched.Now()
		if err := sc.SyncAll(); err != nil {
			b.Fatal(err)
		}
		msgs += float64(cl.Reg.CounterValue("net.san.sent.san-io") - before)
		drain += float64(cl.Sched.Now().Sub(start)) / float64(time.Millisecond)
	}
	b.ReportMetric(msgs/float64(b.N), "san_msgs/flush")
	b.ReportMetric(drain/float64(b.N), "sim_drain_ms")
}

// BenchmarkFlushDrain64Batched — vectored write-back (the default): the
// 64 dirty pages coalesce into one DiskWriteV per disk per 32-page
// window, each served under a single disk service slot.
func BenchmarkFlushDrain64Batched(b *testing.B) { benchFlushDrain(b, 0) }

// BenchmarkFlushDrain64PerPage — the pre-vectoring path (FlushBatch=1):
// one DiskWrite and one service slot per page.
func BenchmarkFlushDrain64PerPage(b *testing.B) { benchFlushDrain(b, 1) }

// benchGroupCommit measures the durable half of the same flush: 64
// blocks written to file-backed media, reporting fsyncs per flush.
// Vectored batches group-commit (two fsyncs per batch); per-block
// writes pay two fsyncs each.
func benchGroupCommit(b *testing.B, batched bool) {
	const blocks = 64
	reg := NewStatsRegistry()
	media, err := OpenFileMedia(b.TempDir(), MediaOptions{
		Blocks: 1 << 10, Registry: reg, StatsPrefix: "media.",
	})
	if err != nil {
		b.Fatal(err)
	}
	defer media.Close()
	data := make([]byte, BlockSize)
	batch := make([]MediaBlockWrite, blocks)
	var fsyncs float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before := reg.CounterValue("media.fsyncs")
		ver := uint64(i + 1)
		if batched {
			for j := range batch {
				batch[j] = MediaBlockWrite{Block: uint64(j), Data: data, Ver: ver}
			}
			for _, err := range media.WriteV(batch) {
				if err != nil {
					b.Fatal(err)
				}
			}
		} else {
			for j := 0; j < blocks; j++ {
				if err := media.Write(uint64(j), data, ver); err != nil {
					b.Fatal(err)
				}
			}
		}
		fsyncs += float64(reg.CounterValue("media.fsyncs") - before)
	}
	b.ReportMetric(fsyncs/float64(b.N), "fsyncs/flush")
}

// BenchmarkGroupCommit64Batched — one WriteV of 64 blocks: stage all,
// then one data fsync and one metadata fsync for the whole batch.
func BenchmarkGroupCommit64Batched(b *testing.B) { benchGroupCommit(b, true) }

// BenchmarkGroupCommit64PerBlock — 64 scalar Writes: two fsyncs each.
func BenchmarkGroupCommit64PerBlock(b *testing.B) { benchGroupCommit(b, false) }

// --- content-addressed cache & read-ahead benchmarks ------------------------

// benchSeqScan measures a reader's cold 32-block sequential scan,
// reporting the SAN messages one scan costs. With read-ahead the blocks
// arrive in vectored batches; without it every block is a scalar
// round trip. The simulator makes the number exact, so the bench gate
// holds it to ±5%.
func benchSeqScan(b *testing.B, opts ...Option) {
	const blocks = 32
	cl := NewClusterWith(append([]Option{WithoutChecker()}, opts...)...)
	cl.Start()
	sc := cl.SyncClient(0)
	h, _, err := sc.Open("/seq", true, true)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, BlockSize)
	for i := 0; i < blocks; i++ {
		binary.BigEndian.PutUint64(data, uint64(i))
		if err := sc.WriteAt(h, uint64(i), data); err != nil {
			b.Fatal(err)
		}
	}
	if err := sc.SyncAll(); err != nil {
		b.Fatal(err)
	}
	attr, err := sc.Lookup("/seq")
	if err != nil {
		b.Fatal(err)
	}
	_ = sc.ReleaseLock(attr.Ino)

	var msgs float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A cold scan each iteration: drop the reader's cache and reopen
		// so the object map is refetched.
		cl.Clients[1].Sub(0).Cache().InvalidateAll()
		hr, _ := cl.MustOpen(1, "/seq", false, false)
		before := cl.Reg.CounterValue("net.san.sent.san-io")
		for j := 0; j < blocks; j++ {
			got, errno := cl.Read(1, hr, uint64(j))
			if errno != msg.OK {
				b.Fatal(errno)
			}
			if binary.BigEndian.Uint64(got) != uint64(j) {
				b.Fatalf("block %d content wrong", j)
			}
		}
		msgs += float64(cl.Reg.CounterValue("net.san.sent.san-io") - before)
	}
	b.ReportMetric(msgs/float64(b.N), "san_reads/scan")
}

// BenchmarkSeqScanPrefetch — the default read-ahead (no option set: a
// window that doubles from 2 to 32): the scan rides vectored batches.
func BenchmarkSeqScanPrefetch(b *testing.B) { benchSeqScan(b) }

// BenchmarkSeqScanNoPrefetch — read-ahead disabled: one scalar SAN read
// per block, the pre-prefetch baseline.
func BenchmarkSeqScanNoPrefetch(b *testing.B) { benchSeqScan(b, WithPrefetch(0)) }

// BenchmarkSharedHotFile runs the shared-hot-file workload (readers
// scanning, one writer churning a small content alphabet) and reports
// how much of the readers' working set the content-addressed cache
// dedups away. The settle scan makes the ratio exact:
// 16 pages sharing 4 contents → 0.75 of the bytes saved.
func BenchmarkSharedHotFile(b *testing.B) {
	cl := NewClusterWith(WithoutChecker())
	cl.Start()
	cfg := workload.DefaultHotFile()
	cfg.Readers = []int{1, 2}
	workload.PopulateHotFile(cl, cfg)
	hf := workload.NewHotFile(cl, cfg)
	hf.Start()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.RunFor(time.Second)
	}
	b.StopTimer()
	hf.Stop()

	// Settle: a final cold scan on reader 1 pins the dedup ratio at a
	// deterministic instant.
	c1 := cl.Clients[1].Sub(0).Cache()
	c1.InvalidateAll()
	hr, _ := cl.MustOpen(1, workload.HotFilePath, false, false)
	for j := 0; j < cfg.Blocks; j++ {
		if _, errno := cl.Read(1, hr, uint64(j)); errno != msg.OK {
			b.Fatal(errno)
		}
	}
	pages := float64(c1.ResidentPages())
	bytes := float64(c1.ResidentBytes())
	if pages > 0 {
		b.ReportMetric(1-bytes/(pages*float64(BlockSize)), "dedup_bytes_saved_ratio")
	}
	hits := float64(cl.Reg.CounterValue("client.n11.cache.prefetch_hits"))
	wasted := float64(cl.Reg.CounterValue("client.n11.cache.prefetch_wasted"))
	if hits+wasted > 0 {
		b.ReportMetric(hits/(hits+wasted), "prefetch_hit_ratio")
	}
}

// BenchmarkCachedReadHit measures the cached-read fast path end to end
// (warm page, shared lock held): the allocation count here is gated, so
// the hot path can't quietly regress.
func BenchmarkCachedReadHit(b *testing.B) {
	cl := NewClusterWith(WithoutChecker())
	cl.Start()
	h, _ := cl.MustOpen(0, "/hit", true, true)
	data := make([]byte, BlockSize)
	if errno := cl.Write(0, h, 0, data); errno != msg.OK {
		b.Fatal(errno)
	}
	if _, errno := cl.Read(0, h, 0); errno != msg.OK {
		b.Fatal(errno)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, errno := cl.Read(0, h, 0); errno != msg.OK {
			b.Fatal(errno)
		}
	}
}

// BenchmarkMetaLookupCached measures a lookup answered from the name
// cache (warm private tree, every directory on the path held): the hit
// path end to end through the simulated installation's pump. It counts the
// control messages the lookups cost — benchjson gates ctl_msgs/lookup at
// exactly 0 — and its allocation count is gated like every other one.
func BenchmarkMetaLookupCached(b *testing.B) {
	cl := NewClusterWith(WithoutChecker())
	cl.Start()
	sc := cl.SyncClient(0)
	if _, err := sc.Create("/warm", true); err != nil {
		b.Fatal(err)
	}
	paths := make([]string, 64)
	for i := range paths {
		paths[i] = fmt.Sprintf("/warm/d%d/f%d", i%4, i)
		if i < 4 {
			if _, err := sc.Create(fmt.Sprintf("/warm/d%d", i), true); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, p := range paths {
		if _, err := sc.Create(p, false); err != nil {
			b.Fatal(err)
		}
	}
	sent := func() uint64 {
		return cl.Reg.CounterValue("net.control.sent.control-req") +
			cl.Reg.CounterValue("net.control.sent.keepalive")
	}
	before := sent()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Lookup(paths[i%len(paths)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(sent()-before)/float64(b.N), "ctl_msgs/lookup")
}

func quickWorkload() WorkloadConfig {
	cfg := DefaultWorkload()
	cfg.Files = 8
	cfg.BlocksPerFile = 4
	cfg.MeanThink = 20 * time.Millisecond
	return cfg
}
