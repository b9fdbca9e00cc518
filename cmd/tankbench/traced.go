package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/msg"
	"repro/internal/stats"
)

// perLayer is every metric a traced run prints, in printing order.
// README.md says what each one measures and which end-to-end metric it
// should move on which workload; BENCHMARK.json lists the same names.
var perLayer = []metricSpec{
	// The machine's speed while the reference window ran, which the
	// end-to-end figures are scaled by and these are not; and the two
	// figures of the operation that are not end-to-end metrics (see
	// endToEnd), from the reference window.
	{"yard.round_trips_per_s", "1/s", higher},
	{"yard.round_trip_us", "us", lower},
	{"op.p99_us", "us", lower},
	{"op.cpu_us_per_op", "us", lower},
	// One-way transport times (sender call → peer Deliver entry) and
	// message counts, from the spans.
	{"rpcnet.ctrl_req_us", "us", lower},
	{"rpcnet.ctrl_rep_us", "us", lower},
	{"rpcnet.ctrl_msgs_per_op", "count", lower},
	{"rpcnet.san_req_us", "us", lower},
	{"rpcnet.san_rep_us", "us", lower},
	{"rpcnet.san_msgs_per_op", "count", lower},
	// The driver ↔ client-executor hops of SyncClient.
	{"sync.submit_hop_us", "us", lower},
	{"sync.wake_hop_us", "us", lower},
	{"server.handle_us", "us", lower},
	{"server.busy_ratio", "ratio", lower},
	{"server.transactions_per_op", "count", lower},
	{"server.bytes_out_per_op", "B", lower},
	{"server.demands_per_op", "count", lower},
	{"meta.snapshot_us", "us", lower},
	{"core.renewals_per_op", "count", lower},
	{"core.keepalives_per_op", "count", lower},
	{"core.chan_retries_per_op", "count", lower},
	{"client.deliver_us", "us", lower},
	{"client.busy_ratio", "ratio", lower},
	{"client.prefetch_batches_per_op", "count", lower},
	{"cache.hit_ratio", "ratio", higher},
	{"cache.evictions_per_op", "count", lower},
	{"cache.invalidations_per_op", "count", lower},
	{"cache.prefetch_wasted_ratio", "ratio", lower},
	{"disk.handle_us", "us", lower},
	{"disk.busy_ratio", "ratio", lower},
	{"disk.reads_per_op", "count", lower},
	{"disk.writes_per_op", "count", lower},
	{"disk.blocks_per_batch", "count", higher},
	{"blockstore.read_us", "us", lower},
	{"blockstore.write_us", "us", lower},
	{"blockstore.writev_us", "us", lower},
	{"blockstore.fsync_us", "us", lower},
	{"blockstore.fsyncs_per_op", "count", lower},
	{"blockstore.bytes_per_user_byte", "ratio", lower},
	{"trace.coverage_ratio", "ratio", higher},
	{"trace.unattributed_us", "us", lower},
	{"trace.overhead_ratio", "ratio", lower},
	// Isolated probes (probes.go).
	{"msg.encode_ctrl_ns", "ns", lower},
	{"msg.decode_ctrl_ns", "ns", lower},
	{"msg.encode_writev32_ns", "ns", lower},
	{"msg.decode_readvres_ns", "ns", lower},
	{"wire.roundtrip_us", "us", lower},
	{"rpcnet.pingpong_us", "us", lower},
	{"rpcnet.pingpong_4k_us", "us", lower},
	{"rpcnet.exec_hop_ns", "ns", lower},
	{"core.replycache_ns", "ns", lower},
	{"lock.acquire_release_ns", "ns", lower},
	{"meta.lookup_ns", "ns", lower},
	{"meta.create_ns", "ns", lower},
	{"cache.read_hit_ns", "ns", lower},
	{"cache.fill_evict_ns", "ns", lower},
	{"cache.write_cow_ns", "ns", lower},
	{"bufpool.getput_ns", "ns", lower},
	{"disk.deliver_writev_mem_us", "us", lower},
	{"blockstore.write1_sync_us", "us", lower},
	{"blockstore.writev32_sync_us", "us", lower},
}

// oneWindow runs the workload for a warm-up and a single window.
func oneWindow(w workload, seed int64, exs []executor, window time.Duration, between func(int), yard func() reading) windowStats {
	return runWindows(w.gens(seed), exs, warmup, window, 1, between, yard)[0]
}

// runTraced produces the per-layer metrics. A quarter of the run measures
// the shipped topology for reference, a quarter the traced one, and the
// probes take what is left; the ratio of the two p50s is the tracing
// overhead, reported with the rest. Unlike the end-to-end runs it leaves
// fsync on, so that the media figures are the real ones, and it reports
// times as the clock read them, with the yardstick's reading beside them.
func runTraced(w workload, seed int64, seconds int, dir, spansOut string) (*report, error) {
	rep := newReport(w, seed, seconds, true)
	window := time.Duration(seconds) * time.Second / 4

	refDir, err := scratch(dir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(refDir)
	in, exs, err := setUp(w, seed, bootConfig{dir: refDir}, bootShipped)
	if err != nil {
		return nil, err
	}
	yard, err := newYardstick()
	if err != nil {
		in.close()
		return nil, err
	}
	defer yard.close()
	readYard := func() reading { return yard.read(2 * yardRead) }
	ref := oneWindow(w, seed, exs, window, nil, readYard)
	if err := finish(rep, in, exs, []windowStats{ref}); err != nil {
		return nil, err
	}
	os.RemoveAll(refDir)

	tracedDir, err := scratch(dir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tracedDir)
	rec := newRecorder(len(w.gens(seed)))
	in, exs, err = setUp(w, seed, bootConfig{dir: tracedDir}, func(cfg bootConfig) (*installation, error) {
		return bootTraced(cfg, rec)
	})
	if err != nil {
		return nil, err
	}
	var c counts
	got := oneWindow(w, seed, exs, window, func(i int) {
		if i == 0 {
			c.before(in)
			rec.enabled.Store(true)
		} else {
			rec.enabled.Store(false)
			c.after(in)
		}
	}, readYard)
	if err := finish(rep, in, exs, []windowStats{got}); err != nil {
		return nil, err
	}
	tr := rec.analyze(w.sharedOps)
	if spansOut != "" {
		if err := writeSpans(spansOut, tr.spans); err != nil {
			return nil, err
		}
	}

	vals := layerMetrics(w, tr, c, got, ref)
	probeDir, err := scratch(dir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(probeDir)
	if err := runProbes(w, seed, probeDir, vals); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	rep.PerLayer = make(map[string]metricValue, len(perLayer))
	for _, m := range perLayer {
		v, ok := vals[m.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
		rep.PerLayer[m.name] = metricValue{v, m.unit}
	}
	return rep, nil
}

// counts is the registry's view of the traced window: counter increases
// plus the three figures that are not counters.
type counts struct {
	snap       stats.Snapshot
	diff       stats.Snapshot
	fsyncs     uint64
	fsyncTime  time.Duration
	mediaBytes uint64
}

// fsyncWait adds up the media layers' fsync_wait histograms.
func fsyncWait(in *installation) (n uint64, total time.Duration) {
	for i := 0; i < nDisks; i++ {
		h := in.reg.Histogram(fmt.Sprintf("disk.%v.media.fsync_wait", firstDisk+msg.NodeID(i)))
		n += h.Count()
		total += h.Sum()
	}
	return n, total
}

func mediaWritten(in *installation) (n uint64) {
	for _, m := range in.media {
		n += m.written.Load()
	}
	return n
}

func (c *counts) before(in *installation) {
	c.snap = in.reg.Snapshot()
	c.fsyncs, c.fsyncTime = fsyncWait(in)
	c.mediaBytes = mediaWritten(in)
}

func (c *counts) after(in *installation) {
	c.diff = in.reg.DiffFrom(c.snap)
	n, t := fsyncWait(in)
	c.fsyncs, c.fsyncTime = n-c.fsyncs, t-c.fsyncTime
	c.mediaBytes = mediaWritten(in) - c.mediaBytes
}

// sum adds every counter named prefix + anything + suffix: the same
// instrument across the nodes of one kind.
func (c *counts) sum(prefix, suffix string) float64 {
	var n uint64
	for name, v := range c.diff {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			n += v
		}
	}
	return float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics turns the traced window's spans and counts into the
// per-layer metrics. Times are means over the window, so that the layers
// of one operation add up; ratios give both terms' source in README.md.
func layerMetrics(w workload, tr traceResult, c counts, got, ref windowStats) map[string]float64 {
	ops := float64(got.Ops)
	windowNS := got.Seconds * 1e9
	l := tr.layers
	ctrlMsgs := float64(l[lCtrlReq].count + l[lCtrlRep].count)
	sanMsgs := float64(l[lSANReq].count + l[lSANRep].count)
	clientBusy := float64(l[lClientDeliver].total + l[lClientStart].total)
	hits, misses := c.sum("client.", ".cache.hits"), c.sum("client.", ".cache.misses")
	pfHits, pfWasted := c.sum("client.", ".cache.prefetch_hits"), c.sum("client.", ".cache.prefetch_wasted")
	return map[string]float64{
		"yard.round_trips_per_s": ref.Yard,
		"yard.round_trip_us":     ref.YardP50US,
		"op.p99_us":              ref.P99US,
		"op.cpu_us_per_op":       ref.CPUUSPerOp,

		"rpcnet.ctrl_req_us":      l[lCtrlReq].meanUS(),
		"rpcnet.ctrl_rep_us":      l[lCtrlRep].meanUS(),
		"rpcnet.ctrl_msgs_per_op": ratio(ctrlMsgs, ops),
		"rpcnet.san_req_us":       l[lSANReq].meanUS(),
		"rpcnet.san_rep_us":       l[lSANRep].meanUS(),
		"rpcnet.san_msgs_per_op":  ratio(sanMsgs, ops),
		"sync.submit_hop_us":      l[lSubmitHop].meanUS(),
		"sync.wake_hop_us":        l[lWakeHop].meanUS(),

		"server.handle_us":           l[lServerHandle].meanUS(),
		"server.busy_ratio":          float64(l[lServerHandle].total) / windowNS,
		"server.transactions_per_op": ratio(c.sum("server.transactions", ""), ops),
		"server.bytes_out_per_op":    ratio(c.sum("server.bytes_out", ""), ops),
		"server.demands_per_op":      ratio(c.sum("server.demands_sent", ""), ops),

		"core.renewals_per_op":     ratio(c.sum("client.", ".lease.renewals"), ops),
		"core.keepalives_per_op":   ratio(c.sum("client.", ".lease.keepalives"), ops),
		"core.chan_retries_per_op": ratio(c.sum("client.", ".chan.retries"), ops),

		"client.deliver_us":              l[lClientDeliver].meanUS(),
		"client.busy_ratio":              clientBusy / (windowNS * nClients),
		"client.prefetch_batches_per_op": ratio(c.sum("client.", ".prefetch_batches"), ops),

		"cache.hit_ratio":             ratio(hits, hits+misses),
		"cache.evictions_per_op":      ratio(c.sum("client.", ".cache.evictions"), ops),
		"cache.invalidations_per_op":  ratio(c.sum("client.", ".cache.invalidations"), ops),
		"cache.prefetch_wasted_ratio": ratio(pfWasted, pfHits+pfWasted),

		"disk.handle_us":        tr.diskSelf.meanUS(),
		"disk.busy_ratio":       float64(l[lDiskHandle].total) / (windowNS * nDisks),
		"disk.reads_per_op":     ratio(c.sum("disk.", ".reads"), ops),
		"disk.writes_per_op":    ratio(c.sum("disk.", ".writes"), ops),
		"disk.blocks_per_batch": ratio(c.sum("disk.", ".batched_blocks"), c.sum("disk.", ".batched_ops")),

		"blockstore.read_us":             l[lMediaRead].meanUS(),
		"blockstore.write_us":            l[lMediaWrite].meanUS(),
		"blockstore.writev_us":           l[lMediaWriteV].meanUS(),
		"blockstore.fsync_us":            ratio(float64(c.fsyncTime)/1e3, float64(c.fsyncs)),
		"blockstore.fsyncs_per_op":       ratio(c.sum("disk.", ".media.fsyncs"), ops),
		"blockstore.bytes_per_user_byte": ratio(float64(c.mediaBytes), ops*float64(w.userBytes)),

		"trace.coverage_ratio":  ratio(float64(tr.opCovered), float64(tr.opTotal)),
		"trace.unattributed_us": ratio(float64(tr.opTotal-tr.opCovered)/1e3, float64(tr.ops)),
		"trace.overhead_ratio":  ratio(got.P50US*timeScale(got), ref.P50US*timeScale(ref)),
	}
}

var layerNames = [nLayers]string{
	lOp: "op", lSubmitHop: "sync.submit_hop", lWakeHop: "sync.wake_hop",
	lClientStart: "client.start", lClientDeliver: "client.deliver",
	lServerHandle: "server.handle", lDiskHandle: "disk.handle",
	lCtrlReq: "rpcnet.ctrl_req", lCtrlRep: "rpcnet.ctrl_rep",
	lSANReq: "rpcnet.san_req", lSANRep: "rpcnet.san_rep",
	lMediaRead: "blockstore.read", lMediaWrite: "blockstore.write", lMediaWriteV: "blockstore.writev",
}

// writeSpans writes every span as one JSON line: layer, the client whose
// operation it belongs to (0 when shared), the message's request ID, and
// start and end in nanoseconds on the recorder's clock.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		err := enc.Encode(struct {
			Layer  string `json:"layer"`
			Client int32  `json:"client"`
			Req    uint64 `json:"req"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{layerNames[s.layer], int32(s.client), s.req, s.start, s.end})
		if err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
