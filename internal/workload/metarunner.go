package workload

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/client"
	"repro/internal/msg"
	"repro/internal/sim"
)

// MetaOps is the metadata surface the sharded scale benchmark drives.
// client.Router satisfies it: every call is transparently routed to the
// authority the placement map assigns the path.
type MetaOps interface {
	Create(path string, isDir bool, cb client.AttrCallback)
	Unlink(path string, cb client.ErrnoCallback)
}

// MetaRunner drives one client with closed-loop metadata traffic: each
// completion immediately issues the next operation, so aggregate
// throughput is bounded by the authorities' service capacity — exactly
// the quantity the shard-scaling curve measures. The runner touches a
// private Zipf-skewed working set /w<client>/f<j>: per-client
// namespaces hash across every shard (keeping all authorities loaded)
// while avoiding cross-client lock conflicts, which would measure
// contention rather than capacity. A touch creates the file if it is not
// there and unlinks it if it is: every operation is a transaction at its
// authority. (A lookup would not be: after the first, the client answers
// it from its name cache, the loop would turn at a single instant, and
// the curve would measure no authority at all.)
type MetaRunner struct {
	ops     MetaOps
	sched   *sim.Scheduler
	client  int
	files   int
	rng     *rand.Rand
	zipf    *rand.Zipf
	created []bool
	stopped bool

	// Ops counts completed operations; Errors counts failures.
	Ops    uint64
	Errors uint64
}

// NewMetaRunner creates a closed-loop metadata runner for client index
// `client` over a working set of `files` paths with Zipf skew s
// (s <= 1 → uniform).
func NewMetaRunner(ops MetaOps, sched *sim.Scheduler, client, files int, zipfS float64, seed int64) *MetaRunner {
	if files < 1 {
		panic("workload: MetaRunner needs at least one file")
	}
	rng := rand.New(rand.NewSource(seed))
	r := &MetaRunner{
		ops: ops, sched: sched, client: client, files: files,
		rng: rng, created: make([]bool, files),
	}
	if zipfS > 1 && files > 1 {
		r.zipf = rand.NewZipf(rng, zipfS, 1, uint64(files-1))
	}
	return r
}

// MetaPath names file j of client c's working set.
func MetaPath(c, j int) string { return fmt.Sprintf("/w%d/f%d", c, j) }

// Start issues the first operation; the loop then self-sustains.
func (r *MetaRunner) Start() { r.step() }

// Stop halts the runner after the in-flight operation completes.
func (r *MetaRunner) Stop() { r.stopped = true }

func (r *MetaRunner) pick() int {
	if r.zipf != nil {
		return int(r.zipf.Uint64())
	}
	return r.rng.Intn(r.files)
}

func (r *MetaRunner) step() {
	if r.stopped {
		return
	}
	j := r.pick()
	done := func(_ msg.Attr, errno msg.Errno) {
		r.Ops++
		if errno == msg.OK {
			r.sched.After(0, r.step)
			return
		}
		r.Errors++
		// Back off: a synchronous refusal (not yet admitted, unroutable)
		// re-issued at delay 0 would spin the event loop in place.
		r.sched.After(time.Millisecond, r.step)
	}
	r.created[j] = !r.created[j]
	if r.created[j] {
		r.ops.Create(MetaPath(r.client, j), false, done)
		return
	}
	r.ops.Unlink(MetaPath(r.client, j), func(errno msg.Errno) { done(msg.Attr{}, errno) })
}
