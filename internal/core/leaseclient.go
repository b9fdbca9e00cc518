package core

import (
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// LeaseActions is how the lease state machine drives its owner (the
// file-system client). All callbacks run on the owner's executor.
type LeaseActions interface {
	// SendKeepAlive sends the NULL renewal message (phase 2). The ACK, if
	// any, flows back through Renewed like every other ACK.
	SendKeepAlive()
	// Quiesce begins phase 3: stop accepting new file-system requests;
	// in-progress operations drain until phase 4.
	Quiesce()
	// Flush begins phase 4: write all dirty data covered by this lease's
	// locks to the SAN. Call done when the flush completes.
	Flush(done func())
	// Expired ends the lease: the cache (data and metadata) is invalid,
	// all locks are ceded, and the owner should initiate Rejoin.
	Expired()
	// PhaseChange reports every transition, for tracing and experiments.
	PhaseChange(from, to Phase)
}

// LeaseClient is the client half of the protocol: one per
// (client, server) pair. It is driven by three inputs — Renewed (an ACK
// arrived for a message first sent at tC1), NACKed (the server refused
// service), and its own clock — and walks the owner through the four
// phases of Fig 4.
type LeaseClient struct {
	cfg   Config
	clock sim.Clock
	act   LeaseActions
	env   Env

	phase Phase
	// start is tC1 of the message that obtained the current lease, on the
	// client's clock. The lease is valid for [start, start+τ).
	start sim.Time
	// nacked records that the current recovery was entered via NACK, so
	// late ACKs cannot revive it even with AllowLateRenewal.
	nacked bool
	// flushed records completion of the phase-4 flush.
	flushed bool

	// The next phase boundary: timer is armed for at, where the boundary
	// into next was when it was armed. A renewal in phase 1 moves the
	// boundary, due, later and leaves timer alone: when timer fires, it
	// re-arms for due if due has moved past at (DESIGN §23.2).
	timer      sim.Timer
	at, due    sim.Deadline
	next       Phase
	onBoundary func()
	kaTimer    sim.Timer // keep-alive repetition in phase 2

	// Instrumentation.
	renewals   *stats.Counter // opportunistic renewals (any ACK)
	keepalives *stats.Counter // keep-alive messages sent
	nacks      *stats.Counter
	expiries   *stats.Counter
	dirtyAtEnd *stats.Counter // expiries with the flush still incomplete
}

// NewLeaseClient creates the state machine in PhaseNone. It does nothing
// until the first Renewed. env supplies the registry, tracer, and the
// identity stamped on emitted events.
func NewLeaseClient(cfg Config, clock sim.Clock, act LeaseActions, env Env) *LeaseClient {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	env = env.withDefaults()
	l := &LeaseClient{
		cfg:        cfg,
		clock:      clock,
		act:        act,
		env:        env,
		renewals:   env.counter("lease.renewals"),
		keepalives: env.counter("lease.keepalives"),
		nacks:      env.counter("lease.nacks"),
		expiries:   env.counter("lease.expiries"),
		dirtyAtEnd: env.counter("lease.dirty_at_expiry"),
	}
	l.onBoundary = l.boundary
	return l
}

// Phase returns the current phase.
func (l *LeaseClient) Phase() Phase { return l.phase }

// Valid reports whether cached data may be served and new operations
// accepted: the paper's contract allows servicing local processes in
// phases 1 and 2 only.
func (l *LeaseClient) Valid() bool {
	return l.phase == Phase1Valid || l.phase == Phase2Renewal
}

// Start returns tC1 of the current lease (meaningful when Valid).
func (l *LeaseClient) Start() sim.Time { return l.start }

// ExpiresAt returns start+τ on the client's clock.
func (l *LeaseClient) ExpiresAt() sim.Time { return l.start.Add(l.cfg.Tau) }

// Renewed records that a message first sent at tC1 (client clock) was
// ACKed. Per §3.1 the lease becomes [tC1, tC1+τ): the renewal is measured
// from the send, not the ACK receipt, because only the send is ordered
// before the server's reply. Stale ACKs (tC1 not newer than the current
// lease start) are ignored. Renewal while quiescing (phase ≥ 3) is
// ignored unless AllowLateRenewal is set and the recovery was not entered
// via NACK.
func (l *LeaseClient) Renewed(tC1 sim.Time) {
	switch l.phase {
	case Phase3Suspect, Phase4Flush, PhaseExpired:
		if !l.cfg.AllowLateRenewal || l.nacked {
			return
		}
	}
	if l.phase != PhaseNone && !tC1.After(l.start) {
		return // older than what we already hold
	}
	// A renewal can only extend an unexpired lease: if the previous lease
	// already ran out (we are expired), only the owner's explicit rejoin
	// path (Reset + Renewed) starts fresh. PhaseExpired is filtered above
	// unless AllowLateRenewal, in which case tC1 must still be recent
	// enough that the lease [tC1, tC1+τ) has not already expired.
	if l.clock.Now().After(tC1.Add(l.cfg.Tau)) {
		return // the lease this ACK grants is already over
	}
	l.renewals.Inc()
	l.env.emit(l.clock, trace.Event{Type: trace.EvRenew, TC1: tC1})
	l.start = tC1
	l.nacked = false
	l.flushed = false
	if l.phase == Phase1Valid {
		// The boundary into phase 2 only moves later: the armed timer
		// re-checks it when it fires.
		l.due = l.clock.Deadline(l.start.Add(l.cfg.phaseStart(Phase2Renewal)))
		l.announce(Phase1Valid)
		return
	}
	l.toPhase(Phase1Valid)
}

// NACKed records a negative acknowledgment (§3.3): the server is timing
// out (or has timed out) this client. The client knows its cache is
// invalid and enters phase 3 directly, skipping further renewal attempts.
func (l *LeaseClient) NACKed() {
	l.nacks.Inc()
	l.env.emit(l.clock, trace.Event{Type: trace.EvNACK})
	if l.phase == PhaseExpired || l.phase == PhaseNone {
		return // nothing to tear down; owner is (re)joining
	}
	l.nacked = true
	if l.phase < Phase3Suspect {
		l.toPhase(Phase3Suspect)
	}
}

// Revive returns a quiescing lease (phase 3/4, typically NACK-entered) to
// phase 1 after a successful lock reassertion with a restarted server
// (§6). tC1 is the local send time of the ACKed Reassert message; the
// revived lease runs [tC1, tC1+τ), exactly like any renewal. Revival is
// refused once the original lease has expired — an expired client holds
// nothing to reassert.
func (l *LeaseClient) Revive(tC1 sim.Time) bool {
	if l.phase != Phase3Suspect && l.phase != Phase4Flush {
		return false
	}
	if l.clock.Now().After(tC1.Add(l.cfg.Tau)) {
		return false
	}
	l.renewals.Inc()
	l.env.emit(l.clock, trace.Event{Type: trace.EvRenew, TC1: tC1, Note: "revive"})
	if tC1.After(l.start) {
		l.start = tC1
	}
	l.nacked = false
	l.flushed = false
	l.toPhase(Phase1Valid)
	return true
}

// Reset returns the machine to PhaseNone (after the owner has completed
// rejoin bookkeeping, or when tearing the client down).
func (l *LeaseClient) Reset() {
	l.stopTimers()
	old := l.phase
	l.phase = PhaseNone
	l.nacked = false
	l.flushed = false
	if old != PhaseNone {
		l.env.emit(l.clock, trace.Event{Type: trace.EvPhase, From: old.String(), To: PhaseNone.String(), Note: "reset"})
		l.act.PhaseChange(old, PhaseNone)
	}
}

func (l *LeaseClient) stopTimers() {
	if l.timer != nil {
		l.timer.Stop()
		l.timer = nil
	}
	if l.kaTimer != nil {
		l.kaTimer.Stop()
		l.kaTimer = nil
	}
}

// announce enters p and reports the transition.
func (l *LeaseClient) announce(p Phase) {
	from := l.phase
	l.phase = p
	l.env.emit(l.clock, trace.Event{Type: trace.EvPhase, From: from.String(), To: p.String()})
	l.act.PhaseChange(from, p)
}

// toPhase enters p, runs its entry action, and schedules the next
// boundary relative to the current lease start.
func (l *LeaseClient) toPhase(p Phase) {
	l.stopTimers()
	l.announce(p)

	switch p {
	case Phase1Valid:
		l.scheduleBoundary(Phase2Renewal)
	case Phase2Renewal:
		l.scheduleBoundary(Phase3Suspect)
		l.startKeepAlives()
	case Phase3Suspect:
		l.scheduleBoundary(Phase4Flush)
		l.env.emit(l.clock, trace.Event{Type: trace.EvQuiesce})
		l.act.Quiesce()
	case Phase4Flush:
		l.scheduleBoundary(PhaseExpired)
		l.env.emit(l.clock, trace.Event{Type: trace.EvFlushStart, Note: "lease"})
		l.act.Flush(func() {
			l.flushed = true
			l.env.emit(l.clock, trace.Event{Type: trace.EvFlushDone, Note: "lease"})
		})
	case PhaseExpired:
		l.expiries.Inc()
		note := ""
		if !l.flushed {
			l.dirtyAtEnd.Inc()
			note = "dirty"
		}
		l.env.emit(l.clock, trace.Event{Type: trace.EvExpire, Note: note})
		l.act.Expired()
	}
}

// scheduleBoundary arms the phase timer for next's boundary. If the
// boundary is already in the past (e.g. a very stale renewal), the
// machine advances immediately via a zero-delay timer, preserving the
// invariant that transitions happen from timer context, not reentrantly.
func (l *LeaseClient) scheduleBoundary(next Phase) {
	l.next = next
	l.due = l.clock.Deadline(l.start.Add(l.cfg.phaseStart(next)))
	l.arm()
}

// arm sets the phase timer for the boundary where it is now.
func (l *LeaseClient) arm() {
	l.at = l.due
	l.timer = l.clock.AtFunc(l.at, l.onBoundary)
}

// boundary is the phase timer's callback. Whether the boundary has come
// is decided by the deadline the timer was armed for, not by reading the
// clock: renewals since the arming have moved it later, or not at all.
func (l *LeaseClient) boundary() {
	l.timer = nil
	if l.due > l.at {
		l.arm()
		return
	}
	l.toPhase(l.next)
}

// startKeepAlives sends one keep-alive immediately and then repeats at
// even intervals across phase 2.
func (l *LeaseClient) startKeepAlives() {
	interval := l.keepAliveInterval()
	var fire func()
	fire = func() {
		if l.phase != Phase2Renewal {
			return
		}
		l.keepalives.Inc()
		l.env.emit(l.clock, trace.Event{Type: trace.EvKeepAlive})
		l.act.SendKeepAlive()
		l.kaTimer = l.clock.AfterFunc(interval, fire)
	}
	fire()
}

// minKeepAliveInterval floors the keep-alive repetition rate. With a τ
// small enough that the phase-2 window holds fewer than KeepAlives
// clock ticks, the even division truncates to zero and the re-arming
// AfterFunc would retrigger at zero delay — a storm that, on the
// simulator, never lets time advance past the phase-2 entry. Clamping
// trades keep-alive count for liveness: the phase boundary timer still
// ends phase 2 on schedule.
const minKeepAliveInterval = sim.Duration(time.Millisecond)

// keepAliveInterval returns the (clamped) spacing of phase-2
// keep-alives.
func (l *LeaseClient) keepAliveInterval() sim.Duration {
	window := l.cfg.phaseStart(Phase3Suspect) - l.cfg.phaseStart(Phase2Renewal)
	interval := divideEven(window, l.cfg.KeepAlives)
	if interval < minKeepAliveInterval {
		interval = minKeepAliveInterval
	}
	return interval
}

// divideEven divides a duration into n even steps (n ≥ 1).
func divideEven(d sim.Duration, n int) sim.Duration {
	if n < 1 {
		n = 1
	}
	return d / sim.Duration(n)
}
