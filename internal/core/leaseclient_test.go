package core

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
)

// actionsRec records every callback from the lease machine with the
// global time it happened.
type actionsRec struct {
	s          *sim.Scheduler
	keepalives []sim.Time
	quiesces   []sim.Time
	flushes    []sim.Time
	expiries   []sim.Time
	changes    []Phase
	flushDone  func()
	// autoFlush completes the flush immediately when set.
	autoFlush bool
}

func (a *actionsRec) SendKeepAlive() { a.keepalives = append(a.keepalives, a.s.Now()) }
func (a *actionsRec) Quiesce()       { a.quiesces = append(a.quiesces, a.s.Now()) }
func (a *actionsRec) Flush(done func()) {
	a.flushes = append(a.flushes, a.s.Now())
	if a.autoFlush {
		done()
	} else {
		a.flushDone = done
	}
}
func (a *actionsRec) Expired()               { a.expiries = append(a.expiries, a.s.Now()) }
func (a *actionsRec) PhaseChange(_, p Phase) { a.changes = append(a.changes, p) }

func testCfg() Config {
	c := DefaultConfig()
	c.Tau = 10 * time.Second
	c.RetryInterval = 100 * time.Millisecond
	return c
}

func newLease(t *testing.T, cfg Config) (*sim.Scheduler, *actionsRec, *LeaseClient, *stats.Registry) {
	t.Helper()
	s := sim.NewScheduler(3)
	rec := &actionsRec{s: s, autoFlush: true}
	reg := stats.NewRegistry()
	l := NewLeaseClient(cfg, s.NewClock(1, 0), rec, Env{Reg: reg, Prefix: "c1."})
	return s, rec, l, reg
}

func TestPhaseWalkWhenIsolated(t *testing.T) {
	cfg := testCfg()
	s, rec, l, reg := newLease(t, cfg)
	if l.Phase() != PhaseNone || l.Valid() {
		t.Fatal("fresh lease machine must be PhaseNone and invalid")
	}
	// Obtain a lease at t=0 (an ACK for a message sent at local time 0),
	// then never renew: the client is isolated.
	l.Renewed(0)
	if l.Phase() != Phase1Valid || !l.Valid() {
		t.Fatalf("phase = %v after renewal", l.Phase())
	}
	s.Run()
	tau := cfg.Tau
	wantQuiesce := sim.Time(float64(tau) * cfg.P2End)
	wantFlush := sim.Time(float64(tau) * cfg.P3End)
	wantExpire := sim.Time(tau)
	if len(rec.quiesces) != 1 || rec.quiesces[0] != wantQuiesce {
		t.Fatalf("quiesce at %v, want %v", rec.quiesces, wantQuiesce)
	}
	if len(rec.flushes) != 1 || rec.flushes[0] != wantFlush {
		t.Fatalf("flush at %v, want %v", rec.flushes, wantFlush)
	}
	if len(rec.expiries) != 1 || rec.expiries[0] != wantExpire {
		t.Fatalf("expiry at %v, want %v", rec.expiries, wantExpire)
	}
	if l.Phase() != PhaseExpired {
		t.Fatalf("final phase = %v", l.Phase())
	}
	// Keep-alives: exactly KeepAlives sends spread over phase 2.
	if len(rec.keepalives) != cfg.KeepAlives {
		t.Fatalf("keepalives = %d, want %d (at %v)", len(rec.keepalives), cfg.KeepAlives, rec.keepalives)
	}
	first := rec.keepalives[0]
	if first != sim.Time(float64(tau)*cfg.P1End) {
		t.Fatalf("first keepalive at %v, want phase-2 entry", first)
	}
	if reg.CounterValue("c1.lease.expiries") != 1 {
		t.Fatal("expiry counter not incremented")
	}
	if reg.CounterValue("c1.lease.dirty_at_expiry") != 0 {
		t.Fatal("flush completed; dirty_at_expiry must be 0")
	}
}

func TestOpportunisticRenewalKeepsPhase1(t *testing.T) {
	cfg := testCfg()
	s, rec, l, reg := newLease(t, cfg)
	clock := s.NewClock(1, 0) // reads same values as the lease clock
	l.Renewed(0)
	// Renew every second (one tenth of τ) for a minute: the client is
	// active, so it must never leave phase 1 and never send a keep-alive.
	for i := 1; i <= 60; i++ {
		i := i
		s.At(sim.Time(i)*sim.Time(time.Second), func() {
			l.Renewed(clock.Now())
		})
	}
	s.RunUntil(sim.Time(60 * time.Second))
	if l.Phase() != Phase1Valid {
		t.Fatalf("phase = %v, want valid", l.Phase())
	}
	if len(rec.keepalives) != 0 {
		t.Fatalf("active client sent %d keep-alives", len(rec.keepalives))
	}
	if got := reg.CounterValue("c1.lease.renewals"); got != 61 {
		t.Fatalf("renewals = %d, want 61", got)
	}
}

func TestRenewalDuringPhase2ReturnsToPhase1(t *testing.T) {
	cfg := testCfg()
	s, rec, l, _ := newLease(t, cfg)
	l.Renewed(0)
	// Let it enter phase 2 (at 5s), then renew at 6s as if a keep-alive
	// sent at 5s was ACKed at 6s: tC1 = 5s.
	s.At(sim.Time(6*time.Second), func() { l.Renewed(sim.Time(5 * time.Second)) })
	s.RunUntil(sim.Time(6 * time.Second))
	if l.Phase() != Phase1Valid {
		t.Fatalf("phase = %v, want back to valid", l.Phase())
	}
	if len(rec.keepalives) == 0 {
		t.Fatal("no keep-alive was sent in phase 2")
	}
	// New lease runs from tC1=5s: next phase-2 entry at 10s, expiry 15s.
	s.Run()
	if len(rec.expiries) != 1 || rec.expiries[0] != sim.Time(15*time.Second) {
		t.Fatalf("expiry at %v, want 15s", rec.expiries)
	}
}

func TestStaleRenewalIgnored(t *testing.T) {
	cfg := testCfg()
	s, _, l, reg := newLease(t, cfg)
	l.Renewed(sim.Time(0))
	s.RunUntil(sim.Time(time.Second))
	l.Renewed(sim.Time(time.Second)) // newer: accepted
	l.Renewed(sim.Time(500 * time.Millisecond))
	l.Renewed(sim.Time(time.Second)) // equal: ignored
	if got := reg.CounterValue("c1.lease.renewals"); got != 2 {
		t.Fatalf("renewals = %d, want 2 (stale ACKs ignored)", got)
	}
	if l.Start() != sim.Time(time.Second) {
		t.Fatalf("lease start = %v", l.Start())
	}
	if l.ExpiresAt() != sim.Time(time.Second).Add(cfg.Tau) {
		t.Fatalf("ExpiresAt = %v", l.ExpiresAt())
	}
}

func TestAncientRenewalCannotResurrect(t *testing.T) {
	cfg := testCfg()
	s, _, l, reg := newLease(t, cfg)
	// An ACK whose tC1 is more than τ in the past grants a lease that has
	// already expired; it must be ignored even from PhaseNone.
	s.RunUntil(sim.Time(20 * time.Second))
	l.Renewed(sim.Time(time.Second))
	if l.Phase() != PhaseNone {
		t.Fatalf("phase = %v, want none", l.Phase())
	}
	if reg.CounterValue("c1.lease.renewals") != 0 {
		t.Fatal("ancient renewal counted")
	}
}

func TestNACKJumpsToQuiesce(t *testing.T) {
	cfg := testCfg()
	s, rec, l, reg := newLease(t, cfg)
	l.Renewed(0)
	s.At(sim.Time(time.Second), func() { l.NACKed() })
	s.RunUntil(sim.Time(time.Second))
	if l.Phase() != Phase3Suspect {
		t.Fatalf("phase after NACK = %v, want suspect", l.Phase())
	}
	if len(rec.quiesces) != 1 || rec.quiesces[0] != sim.Time(time.Second) {
		t.Fatalf("quiesce at %v, want 1s (immediately on NACK)", rec.quiesces)
	}
	// A later ACK for an old message must NOT revive the lease.
	l.Renewed(sim.Time(900 * time.Millisecond))
	if l.Phase() != Phase3Suspect {
		t.Fatal("NACKed client revived by stale ACK")
	}
	s.Run()
	// Phase 4 and expiry still run at the original schedule (8.5s, 10s).
	if len(rec.flushes) != 1 || rec.flushes[0] != sim.Time(8500*time.Millisecond) {
		t.Fatalf("flush at %v, want 8.5s", rec.flushes)
	}
	if len(rec.expiries) != 1 || rec.expiries[0] != sim.Time(10*time.Second) {
		t.Fatalf("expiry at %v, want 10s", rec.expiries)
	}
	if reg.CounterValue("c1.lease.nacks") != 1 {
		t.Fatal("nack counter wrong")
	}
}

func TestNACKInPhase4DoesNotRegress(t *testing.T) {
	cfg := testCfg()
	s, rec, l, _ := newLease(t, cfg)
	l.Renewed(0)
	s.At(sim.Time(9*time.Second), func() { l.NACKed() }) // already in phase 4
	s.Run()
	if len(rec.quiesces) != 1 {
		t.Fatalf("quiesce ran %d times", len(rec.quiesces))
	}
	if len(rec.flushes) != 1 {
		t.Fatalf("flush ran %d times", len(rec.flushes))
	}
}

func TestDirtyAtExpiryCounted(t *testing.T) {
	cfg := testCfg()
	s, rec, l, reg := newLease(t, cfg)
	rec.autoFlush = false // flush never completes (e.g. SAN also failed)
	l.Renewed(0)
	s.Run()
	if reg.CounterValue("c1.lease.dirty_at_expiry") != 1 {
		t.Fatal("incomplete flush at expiry not counted")
	}
}

func TestLateFlushCompletionAfterExpiry(t *testing.T) {
	cfg := testCfg()
	s, rec, l, _ := newLease(t, cfg)
	rec.autoFlush = false
	l.Renewed(0)
	s.Run()
	// Completing the flush after expiry must not panic or regress state.
	rec.flushDone()
	if l.Phase() != PhaseExpired {
		t.Fatalf("phase = %v", l.Phase())
	}
}

func TestResetReturnsToNone(t *testing.T) {
	cfg := testCfg()
	s, rec, l, _ := newLease(t, cfg)
	l.Renewed(0)
	s.RunUntil(sim.Time(time.Second))
	l.Reset()
	if l.Phase() != PhaseNone {
		t.Fatalf("phase = %v after Reset", l.Phase())
	}
	s.Run()
	if len(rec.quiesces) != 0 || len(rec.expiries) != 0 {
		t.Fatal("timers survived Reset")
	}
	// A fresh renewal restarts the machine.
	l.Renewed(l.clock.Now())
	if l.Phase() != Phase1Valid {
		t.Fatal("renewal after Reset did not start a lease")
	}
}

func TestNACKInPhaseNoneIgnored(t *testing.T) {
	_, _, l, reg := newLease(t, testCfg())
	l.NACKed()
	if l.Phase() != PhaseNone {
		t.Fatalf("phase = %v", l.Phase())
	}
	if reg.CounterValue("c1.lease.nacks") != 1 {
		t.Fatal("nack not counted")
	}
}

func TestAllowLateRenewalRevives(t *testing.T) {
	cfg := testCfg()
	cfg.AllowLateRenewal = true
	s, _, l, _ := newLease(t, cfg)
	l.Renewed(0)
	// Natural progression into phase 3 (7s), then a delayed ACK for a
	// message sent at 6.9s arrives at 7.5s: with AllowLateRenewal the
	// lease revives (the recovery was not NACK-entered).
	s.At(sim.Time(7500*time.Millisecond), func() {
		l.Renewed(sim.Time(6900 * time.Millisecond))
	})
	s.RunUntil(sim.Time(7500 * time.Millisecond))
	if l.Phase() != Phase1Valid {
		t.Fatalf("phase = %v, want revived", l.Phase())
	}
}

func TestLateRenewalAfterNACKStillRefused(t *testing.T) {
	cfg := testCfg()
	cfg.AllowLateRenewal = true
	s, _, l, _ := newLease(t, cfg)
	l.Renewed(0)
	s.At(sim.Time(time.Second), func() { l.NACKed() })
	s.At(sim.Time(2*time.Second), func() { l.Renewed(sim.Time(1500 * time.Millisecond)) })
	s.RunUntil(sim.Time(2 * time.Second))
	if l.Phase() != Phase3Suspect {
		t.Fatalf("phase = %v; NACK-entered recovery must not revive", l.Phase())
	}
}

func TestPhaseStringAndValidate(t *testing.T) {
	for p := PhaseNone; p <= PhaseExpired; p++ {
		if p.String() == "" {
			t.Fatal("empty phase name")
		}
	}
	if Phase(99).String() == "" {
		t.Fatal("unknown phase must format")
	}
	bad := []Config{
		{},
		{Tau: time.Second, P1End: 0.5, P2End: 0.4, P3End: 0.9, KeepAlives: 1, RetryInterval: 1},
		{Tau: time.Second, P1End: 0.5, P2End: 0.7, P3End: 1.0, KeepAlives: 1, RetryInterval: 1},
		{Tau: time.Second, P1End: 0.5, P2End: 0.7, P3End: 0.9, KeepAlives: 0, RetryInterval: 1},
		{Tau: time.Second, P1End: 0.5, P2End: 0.7, P3End: 0.9, KeepAlives: 1, RetryInterval: 0},
		{Tau: time.Second, Bound: sim.RateBound{Eps: -1}, P1End: 0.5, P2End: 0.7, P3End: 0.9, KeepAlives: 1, RetryInterval: 1},
		{Tau: time.Second, P1End: 0.5, P2End: 0.7, P3End: 0.9, KeepAlives: 1, RetryInterval: 1, DemandRetries: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("config %d validated but is invalid", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestStealDelayStretch(t *testing.T) {
	cfg := testCfg()
	cfg.Bound.Eps = 0.10
	if got, want := cfg.StealDelay(), 11*time.Second; got != want {
		t.Fatalf("StealDelay = %v, want %v", got, want)
	}
}

func TestReviveFromNACKQuiesce(t *testing.T) {
	cfg := testCfg()
	s, rec, l, _ := newLease(t, cfg)
	l.Renewed(0)
	s.At(sim.Time(time.Second), func() { l.NACKed() })
	s.RunUntil(sim.Time(2 * time.Second))
	if l.Phase() != Phase3Suspect {
		t.Fatalf("phase = %v", l.Phase())
	}
	// A reassertion ACKed: the lease revives from the reassert's send
	// time even though the recovery was NACK-entered.
	if !l.Revive(sim.Time(1500 * time.Millisecond)) {
		t.Fatal("revive refused")
	}
	if l.Phase() != Phase1Valid {
		t.Fatalf("phase = %v after revive", l.Phase())
	}
	if l.Start() != sim.Time(1500*time.Millisecond) {
		t.Fatalf("lease start = %v", l.Start())
	}
	// The revived lease runs its full schedule from the new start.
	s.Run()
	if len(rec.expiries) != 1 || rec.expiries[0] != sim.Time(1500*time.Millisecond).Add(cfg.Tau) {
		t.Fatalf("expiry at %v", rec.expiries)
	}
}

func TestReviveRefusedOutsideQuiesce(t *testing.T) {
	cfg := testCfg()
	s, _, l, _ := newLease(t, cfg)
	if l.Revive(0) {
		t.Fatal("revive from PhaseNone accepted")
	}
	l.Renewed(0)
	if l.Revive(sim.Time(time.Millisecond)) {
		t.Fatal("revive from phase 1 accepted")
	}
	s.Run() // expire
	if l.Phase() != PhaseExpired {
		t.Fatalf("phase = %v", l.Phase())
	}
	if l.Revive(l.clock.Now()) {
		t.Fatal("revive after expiry accepted")
	}
}

func TestReviveRefusedWhenLeaseAlreadyOver(t *testing.T) {
	cfg := testCfg()
	s, _, l, _ := newLease(t, cfg)
	l.Renewed(0)
	s.At(sim.Time(8*time.Second), func() { l.NACKed() })
	s.RunUntil(sim.Time(9 * time.Second))
	// A reassert whose send time is more than τ ago grants nothing.
	s.RunUntil(sim.Time(9500 * time.Millisecond))
	if l.Revive(sim.Time(-2 * sim.Time(time.Second))) {
		t.Fatal("stale revive accepted")
	}
}

// TestKeepAliveIntervalTinyTau is the regression test for the keep-alive
// interval underflow: with a τ so small that the phase-2 window holds
// fewer clock ticks than KeepAlives, the even division truncated to
// zero and the re-arming AfterFunc retriggered at zero delay — on the
// simulator an event storm at a frozen instant, on a real clock a hot
// loop. The interval must clamp to a positive floor and the machine
// must still walk to expiry with a bounded keep-alive count.
func TestKeepAliveIntervalTinyTau(t *testing.T) {
	cfg := testCfg()
	cfg.Tau = 10 * time.Nanosecond // phase-2 window: 2ns < KeepAlives (4) ticks
	s, rec, l, _ := newLease(t, cfg)
	if got := l.keepAliveInterval(); got <= 0 {
		t.Fatalf("keep-alive interval = %v; zero-delay retrigger storm", got)
	}
	l.Renewed(0)
	s.Run()
	if l.Phase() != PhaseExpired {
		t.Fatalf("final phase = %v, want expired", l.Phase())
	}
	if len(rec.keepalives) == 0 || len(rec.keepalives) > cfg.KeepAlives {
		t.Fatalf("keepalives = %d, want in [1, %d]", len(rec.keepalives), cfg.KeepAlives)
	}
}

// TestKeepAliveIntervalUnclamped: ordinary configurations are not
// affected by the clamp — the spacing stays the even division of the
// phase-2 window.
func TestKeepAliveIntervalUnclamped(t *testing.T) {
	cfg := testCfg() // τ=10s, window 2s, 4 keep-alives
	_, _, l, _ := newLease(t, cfg)
	if got, want := l.keepAliveInterval(), 500*time.Millisecond; got != want {
		t.Fatalf("keep-alive interval = %v, want %v", got, want)
	}
}

// stormLease is a lease on a clock running 5 % fast from an odd offset,
// with every timer armed on it counted.
func stormLease(t *testing.T) (*sim.Scheduler, *actionsRec, *LeaseClient, *sim.CountingClock) {
	t.Helper()
	s := sim.NewScheduler(3)
	clock := &sim.CountingClock{Clock: s.NewClock(1.05, 7*time.Hour+123456789)}
	rec := &actionsRec{s: s, autoFlush: true}
	return s, rec, NewLeaseClient(testCfg(), clock, rec, Env{}), clock
}

// renewalStorm renews l 10 000 times, every 100µs of global time for a
// second, each time for a message sent 50µs before, as a busy client's
// replies do. It returns the deadline of the boundary into phase 2 as a
// timer armed at the last renewal would have had it.
func renewalStorm(s *sim.Scheduler, l *LeaseClient, clock sim.Clock) sim.Deadline {
	var last sim.Deadline
	for i := 1; i <= 10000; i++ {
		s.At(s.Now().Add(sim.Duration(i)*100*time.Microsecond), func() {
			l.Renewed(clock.Now().Add(-50 * time.Microsecond))
			last = clock.Deadline(l.Start().Add(l.cfg.phaseStart(Phase2Renewal)))
		})
	}
	s.RunUntil(s.Now().Add(time.Second))
	return last
}

// TestRenewalStormArmsOneTimer pins the lazy phase boundary: renewals in
// phase 1 only move the boundary later, so 10 000 of them arm no timer
// beyond the one the first renewal armed.
func TestRenewalStormArmsOneTimer(t *testing.T) {
	s, _, l, clock := stormLease(t)
	l.Renewed(clock.Now())
	renewalStorm(s, l, clock)
	if l.Phase() != Phase1Valid {
		t.Fatalf("phase = %v after the storm", l.Phase())
	}
	if n := clock.Armed(); n != 1 {
		t.Fatalf("10 000 renewals in phase 1 armed %d timers, want the first renewal's one", n)
	}
}

// TestPhase2StartsAtLastRenewal checks where the lazy boundary lands on a
// skewed clock: phase 2 begins exactly where a timer armed at the last
// renewal would have begun it, P1End·τ after that renewal's send.
func TestPhase2StartsAtLastRenewal(t *testing.T) {
	s, rec, l, clock := stormLease(t)
	l.Renewed(clock.Now())
	first := s.Now().Add(clock.Clock.(*sim.NodeClock).GlobalDur(l.cfg.phaseStart(Phase2Renewal)))
	want := renewalStorm(s, l, clock)
	boundary := l.Start().Add(l.cfg.phaseStart(Phase2Renewal))
	s.Run()
	if len(rec.keepalives) == 0 {
		t.Fatal("phase 2 never began")
	}
	got := rec.keepalives[0] // the first keep-alive goes out on entering phase 2
	if got != sim.Time(want) {
		t.Fatalf("phase 2 began at global %v, want %v (the last renewal's boundary)", got, sim.Time(want))
	}
	if global := clock.Clock.(*sim.NodeClock).GlobalAt(boundary); got < global-2 || got > global+2 {
		t.Fatalf("phase 2 began at global %v, %v from start+P1End·τ", got, got.Sub(global))
	}
	if got.Sub(first) < 900*time.Millisecond {
		t.Fatalf("phase 2 began %v after the first renewal's boundary: the storm did not move it", got.Sub(first))
	}
}

// TestNACKAfterRenewalStorm: a NACK moves the boundary it leaves armed
// (phase 2's) to phase 4's, and phase 4 begins P3End·τ after the last
// renewal's send, not after the first's.
func TestNACKAfterRenewalStorm(t *testing.T) {
	s, rec, l, clock := stormLease(t)
	l.Renewed(clock.Now())
	renewalStorm(s, l, clock)
	want := clock.Deadline(l.Start().Add(l.cfg.phaseStart(Phase4Flush)))
	l.NACKed()
	if l.Phase() != Phase3Suspect || len(rec.quiesces) != 1 {
		t.Fatalf("phase %v, %d quiesces after the NACK", l.Phase(), len(rec.quiesces))
	}
	s.Run()
	if len(rec.flushes) != 1 || rec.flushes[0] != sim.Time(want) {
		t.Fatalf("phase 4 began at %v, want %v", rec.flushes, sim.Time(want))
	}
	if len(rec.keepalives) != 0 {
		t.Fatalf("a NACKed lease sent %d keep-alives", len(rec.keepalives))
	}
}

// TestResetAfterRenewalStormDisarms: Reset leaves no timer armed, the
// lazy boundary's included.
func TestResetAfterRenewalStormDisarms(t *testing.T) {
	s, rec, l, clock := stormLease(t)
	l.Renewed(clock.Now())
	renewalStorm(s, l, clock)
	l.Reset()
	changes := len(rec.changes)
	fired := s.Fired()
	s.Run()
	if s.Fired() != fired || len(rec.changes) != changes {
		t.Fatalf("%d timers fired after Reset, %d phase changes", s.Fired()-fired, len(rec.changes)-changes)
	}
}
