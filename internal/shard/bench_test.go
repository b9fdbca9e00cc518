package shard_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/msg"
	"repro/internal/shard"
	"repro/internal/workload"
)

// scaleOptions is the benchmark configuration: the authority is the
// bottleneck (100µs of metadata service per request, zero disk time, no
// oracle), leases are long and retries lazy so the lease protocol is
// pure background, and placement is the hash — every client's working set
// spreads across all shards. It is set explicitly so that the one-shard
// point is still a shard of a placed namespace (parents materialize on
// create, as on every other point of the curve), and clocks run at rate 1
// so the curve's figures are the ones the baseline records.
func scaleOptions(shards, clients int) cluster.Options {
	opts := shardOptions()
	opts.Shards = shards
	opts.Clients = clients
	opts.Placement = shard.Hash{N: shards}
	opts.ClockSkew = false
	opts.Core.Tau = 60 * time.Second
	opts.Core.RetryInterval = 2 * time.Second
	opts.NoChecker = true
	opts.ServerService = 100 * time.Microsecond
	opts.DiskService = 0
	return opts
}

// workingSet is how many files each client's private working set holds.
const workingSet = 16

// runShardScale boots the installation, drives every client closed-loop
// with Zipf-skewed metadata traffic (skew 1.2 over a 16-file private
// working set, each operation a create or an unlink: a transaction at
// the file's authority) for `dur` of simulated time, and returns
// completed metadata operations per simulated second.
//
// The directory skeleton is laid first, outside the measurement: a
// client's first create on a shard materializes its directory in that
// shard's root, which every client that has walked through the root has
// cached — a revocation per holder, once per (client, shard), and with a
// skewed working set hashed over eight shards a client would still be
// paying its last ones seconds into the run. The curve is about what an
// authority sustains, so every client touches each of its files once
// before the clock starts.
func runShardScale(tb testing.TB, shards, clients int, dur time.Duration) float64 {
	tb.Helper()
	inst := cluster.New(scaleOptions(shards, clients))
	inst.Start()

	// A hundred clients at a time: the ones laying their directories
	// together take the root from one another, a demand per holder and
	// create, so what that costs grows with the square of their number.
	const wave = 100
	for first := 0; first < clients; first += wave {
		pending := 0
		for ci := first; ci < min(first+wave, clients); ci++ {
			for j := 0; j < workingSet; j++ {
				path, c := workload.MetaPath(ci, j), inst.Clients[ci]
				pending++
				c.Create(path, false, func(_ msg.Attr, errno msg.Errno) {
					if errno != msg.OK {
						tb.Errorf("laying %s: %v", path, errno)
					}
					c.Unlink(path, func(msg.Errno) { pending-- })
				})
			}
		}
		inst.Sched.RunWhile(func() bool { return pending > 0 })
	}

	runners := make([]*workload.MetaRunner, clients)
	for ci := 0; ci < clients; ci++ {
		runners[ci] = workload.NewMetaRunner(inst.Clients[ci], inst.Sched, ci,
			workingSet, 1.2, int64(1000+ci))
		runners[ci].Start()
	}
	inst.RunFor(dur)

	var ops, errs uint64
	for _, r := range runners {
		r.Stop()
		ops += r.Ops
		errs += r.Errors
	}
	if errs > ops/100 {
		tb.Fatalf("error rate too high to trust the curve: %d errors / %d ops", errs, ops)
	}
	return float64(ops) / dur.Seconds()
}

// BenchmarkShardScaleZipf is the scaling curve: 1000 clients of
// Zipf-skewed closed-loop metadata traffic against 1, 2, 4, and 8
// lease authorities. mdops_per_simsec is simulator-time throughput —
// deterministic, independent of host speed. benchjson derives
// derived.shardscale.speedup_{2,4,8}x from the curve and -compare
// enforces the 4-shard ≥ 3× floor.
func BenchmarkShardScaleZipf(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				rate = runShardScale(b, shards, 1000, 2*time.Second)
			}
			b.ReportMetric(rate, "mdops_per_simsec")
			b.ReportMetric(0, "ns/op") // sim-time metric; wall ns/op is noise
		})
	}
}

// BenchmarkShardScaleZipf10k is the top of the client range: ten
// thousand closed-loop clients (80k protocol instances) against 8
// authorities. Throughput matches the 1k-client point — the authority
// is the bottleneck either way — so this tier exists to prove the
// installation HOLDS at that scale, not to move the curve. Not part of
// the derived speedup gate.
func BenchmarkShardScaleZipf10k(b *testing.B) {
	for _, shards := range []int{8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				rate = runShardScale(b, shards, 10000, time.Second)
			}
			b.ReportMetric(rate, "mdops_per_simsec")
			b.ReportMetric(0, "ns/op")
		})
	}
}

// TestShardScaleSmoke is the make-verify tier of the curve: 64 clients,
// 2 shards vs 1, a second of simulated traffic each. Two authorities
// must clear ≥1.3× one — far below the asymptotic 2×, high enough to
// catch a serialization bug (a global lock, a misrouted hash) that
// collapses the curve.
func TestShardScaleSmoke(t *testing.T) {
	base := runShardScale(t, 1, 64, time.Second)
	two := runShardScale(t, 2, 64, time.Second)
	if base <= 0 {
		t.Fatal("no throughput on a single shard")
	}
	ratio := two / base
	t.Logf("1 shard: %.0f mdops/simsec; 2 shards: %.0f (%.2fx)", base, two, ratio)
	if ratio < 1.3 {
		t.Fatalf("2-shard speedup %.2fx < 1.3x: sharding is not scaling", ratio)
	}
}
