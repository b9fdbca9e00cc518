package workload

import (
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/msg"
	"repro/internal/sim"
)

// fakeMeta completes every op after a fixed service delay and records
// the paths touched.
type fakeMeta struct {
	sched   *sim.Scheduler
	delay   time.Duration
	fail    bool
	creates []string
	lookups []string
}

func (f *fakeMeta) Lookup(path string, cb client.AttrCallback) {
	f.lookups = append(f.lookups, path)
	f.complete(cb)
}

func (f *fakeMeta) Create(path string, _ bool, cb client.AttrCallback) {
	f.creates = append(f.creates, path)
	f.complete(cb)
}

func (f *fakeMeta) complete(cb func(msg.Attr, msg.Errno)) {
	errno := msg.OK
	if f.fail {
		errno = msg.ErrStale
	}
	if f.delay == 0 {
		cb(msg.Attr{}, errno)
		return
	}
	f.sched.After(f.delay, func() { cb(msg.Attr{}, errno) })
}

func TestMetaRunnerClosedLoop(t *testing.T) {
	s := sim.NewScheduler(1)
	f := &fakeMeta{sched: s, delay: time.Millisecond}
	r := NewMetaRunner(f, s, 3, 8, 1.2, 42)
	r.Start()
	s.RunFor(time.Second)
	r.Stop()

	// Closed loop at 1ms service: ~1000 ops in a simulated second.
	if r.Ops < 900 || r.Errors != 0 {
		t.Fatalf("ops = %d (errors %d), want ~1000", r.Ops, r.Errors)
	}
	// First touch creates, every later touch looks up — each working-set
	// file is created at most once, under this client's own prefix.
	seen := map[string]bool{}
	for _, p := range f.creates {
		if seen[p] {
			t.Fatalf("file created twice: %s", p)
		}
		seen[p] = true
		if !strings.HasPrefix(p, "/w3/") {
			t.Fatalf("create outside client working set: %s", p)
		}
	}
	for _, p := range f.lookups {
		if !seen[p] {
			t.Fatalf("lookup before create: %s", p)
		}
	}
	// Zipf skew: the hottest file draws a plurality of the traffic.
	hot := 0
	for _, p := range f.lookups {
		if p == MetaPath(3, 0) {
			hot++
		}
	}
	if hot*3 < len(f.lookups) {
		t.Fatalf("skew missing: hottest file got %d of %d lookups", hot, len(f.lookups))
	}
}

// TestMetaRunnerErrorBackoff: synchronous failures must not spin the
// event loop at one instant — the runner backs off and keeps counting.
func TestMetaRunnerErrorBackoff(t *testing.T) {
	s := sim.NewScheduler(1)
	f := &fakeMeta{sched: s, fail: true}
	r := NewMetaRunner(f, s, 0, 4, 0, 7)
	r.Start()
	s.RunFor(100 * time.Millisecond)
	r.Stop()
	// 1ms backoff per failure → ~100 attempts, all errors, loop alive.
	if r.Errors < 50 || r.Errors > 200 {
		t.Fatalf("errors = %d, want ~100 (backoff broken)", r.Errors)
	}
	if r.Ops != r.Errors {
		t.Fatalf("ops %d != errors %d on an always-failing surface", r.Ops, r.Errors)
	}
}
