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
	unlinks []string
	exists  map[string]bool
	wrong   int // creates of a file that exists, unlinks of one that does not
}

func (f *fakeMeta) Unlink(path string, cb client.ErrnoCallback) {
	f.unlinks = append(f.unlinks, path)
	f.touch(path, false)
	f.complete(func(_ msg.Attr, errno msg.Errno) { cb(errno) })
}

func (f *fakeMeta) Create(path string, _ bool, cb client.AttrCallback) {
	f.creates = append(f.creates, path)
	f.touch(path, true)
	f.complete(cb)
}

func (f *fakeMeta) touch(path string, create bool) {
	if f.exists == nil {
		f.exists = make(map[string]bool)
	}
	if f.exists[path] == create {
		f.wrong++
	}
	f.exists[path] = create
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
	// A touch creates the file or unlinks it, whichever it is due: every
	// operation is a transaction, under this client's own prefix, and none
	// is refused.
	if f.wrong != 0 {
		t.Fatalf("%d creates of an existing file or unlinks of a missing one", f.wrong)
	}
	if len(f.unlinks) == 0 {
		t.Fatal("no file was ever touched twice")
	}
	for _, p := range append(f.creates, f.unlinks...) {
		if !strings.HasPrefix(p, "/w3/") {
			t.Fatalf("operation outside client working set: %s", p)
		}
	}
	// Zipf skew: the hottest file draws a plurality of the traffic.
	hot := 0
	for _, p := range append(f.creates, f.unlinks...) {
		if p == MetaPath(3, 0) {
			hot++
		}
	}
	if hot*3 < len(f.creates)+len(f.unlinks) {
		t.Fatalf("skew missing: hottest file got %d of %d operations", hot, len(f.creates)+len(f.unlinks))
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
