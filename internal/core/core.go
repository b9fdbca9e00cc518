// Package core implements the paper's contribution: the Storage Tank
// lease-based safety protocol (Burns, Rees, Long — IPPS 2000).
//
// A lease is a contract between a client and a server: the server promises
// to respect the client's locks — even if the client becomes unreachable —
// for the lease period τ, and the client promises not to operate on cached
// data without a valid lease. There is exactly one lease per
// (client, server) pair, matching the granularity of real failures
// (a crash or partition invalidates everything held with that server),
// not one lease per object as in the V system (§4).
//
// Three pieces live here:
//
//   - LeaseClient: the client's four-phase lease state machine (§3.2).
//   - Authority: the server's passive lease authority (§3), which keeps NO
//     per-client lease state during normal operation and acts only when a
//     delivery error occurs.
//   - Channel: the client's reliable-request layer (datagram retries with
//     at-most-once request IDs) that renews the lease opportunistically
//     from the ordered-events rule of §3.1: an ACKed message renews the
//     lease from the time the message was FIRST sent (tC1), because that
//     send is known to precede the server's ACK (tC1 ≤ tS2) with no clock
//     synchronization at all.
//
// The code is transport- and clock-agnostic: it runs identically on the
// deterministic simulator (internal/sim, internal/simnet) and on real
// clocks over TCP (internal/rpcnet).
package core

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Phase is the client's position within its lease period (§3.2, Fig 4).
type Phase uint8

const (
	// PhaseNone: no lease has ever been obtained (startup, or after the
	// channel was reset).
	PhaseNone Phase = iota
	// Phase1Valid: a recently obtained lease protects all locked objects;
	// normal operation. Active clients spend virtually all time here.
	Phase1Valid
	// Phase2Renewal: no ACK arrived during phase 1; the client actively
	// sends keep-alive NULL messages while still servicing local requests.
	Phase2Renewal
	// Phase3Suspect: renewal failed; the client assumes it is isolated,
	// stops servicing new file-system requests, and drains in-progress
	// operations (quiesce).
	Phase3Suspect
	// Phase4Flush: all dirty data protected by locks under this lease is
	// written directly to the SAN disks. The fence is not yet up — the
	// server steals locks and fences only at τ(1+ε) — so this flush
	// reaches storage.
	Phase4Flush
	// PhaseExpired: the lease is over; cached data and metadata are
	// invalid, locks are ceded, and the client must Rejoin before talking
	// to the server again.
	PhaseExpired
)

var phaseNames = [...]string{
	PhaseNone:     "none",
	Phase1Valid:   "valid",
	Phase2Renewal: "renewal",
	Phase3Suspect: "suspect",
	Phase4Flush:   "flush",
	PhaseExpired:  "expired",
}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("Phase(%d)", uint8(p))
}

// Config holds the protocol parameters shared by both sides.
type Config struct {
	// Tau is the lease period τ, measured on whichever clock owns it.
	Tau time.Duration
	// Bound is the pairwise clock rate-synchronization bound ε. The
	// server waits τ(1+ε) on its clock before stealing locks (Thm 3.1).
	Bound sim.RateBound
	// P1End, P2End, P3End split the lease period into the four phases as
	// fractions of τ: phase 1 is [0, P1End), phase 2 [P1End, P2End),
	// phase 3 [P2End, P3End), phase 4 [P3End, 1). The paper fixes the
	// phases' order and purpose but not their boundaries; these defaults
	// are a documented design choice (DESIGN.md §5).
	P1End, P2End, P3End float64
	// KeepAlives is how many keep-alive attempts are spread across
	// phase 2.
	KeepAlives int
	// RetryInterval is the client's datagram retry interval and the
	// server's demand retry interval.
	RetryInterval time.Duration
	// DemandRetries is how many times the server re-sends an un-acked
	// Demand before declaring a delivery failure and starting the lease
	// timeout for the client.
	DemandRetries int
	// AllowLateRenewal, if true, lets an ACK that arrives while the
	// client is already in phase 3/4 revive the lease. Off by default:
	// once quiescing, the client completes recovery (simpler, and the
	// paper's phase description implies one-way progression after a NACK).
	AllowLateRenewal bool
}

// DefaultConfig returns the parameters used throughout the reproduction:
// τ=30s (Frangipani's choice, which the paper cites as the closest
// system), ε=5%, phases split 50/20/15/15.
func DefaultConfig() Config {
	return Config{
		Tau:           30 * time.Second,
		Bound:         sim.RateBound{Eps: 0.05},
		P1End:         0.50,
		P2End:         0.70,
		P3End:         0.85,
		KeepAlives:    4,
		RetryInterval: 500 * time.Millisecond,
		DemandRetries: 3,
	}
}

// Validate checks the configuration's internal consistency.
func (c Config) Validate() error {
	switch {
	case c.Tau <= 0:
		return fmt.Errorf("core: Tau must be positive, got %v", c.Tau)
	case c.Bound.Eps < 0:
		return fmt.Errorf("core: Eps must be non-negative, got %g", c.Bound.Eps)
	case !(0 < c.P1End && c.P1End < c.P2End && c.P2End < c.P3End && c.P3End < 1):
		return fmt.Errorf("core: phase boundaries must satisfy 0 < P1End < P2End < P3End < 1, got %g/%g/%g",
			c.P1End, c.P2End, c.P3End)
	case c.KeepAlives < 1:
		return fmt.Errorf("core: KeepAlives must be >= 1, got %d", c.KeepAlives)
	case c.RetryInterval <= 0:
		return fmt.Errorf("core: RetryInterval must be positive, got %v", c.RetryInterval)
	case c.DemandRetries < 0:
		return fmt.Errorf("core: DemandRetries must be >= 0, got %d", c.DemandRetries)
	}
	return nil
}

// phaseStart returns the offset from lease start (local clock) at which
// the given phase begins.
func (c Config) phaseStart(p Phase) time.Duration {
	switch p {
	case Phase1Valid:
		return 0
	case Phase2Renewal:
		return time.Duration(float64(c.Tau) * c.P1End)
	case Phase3Suspect:
		return time.Duration(float64(c.Tau) * c.P2End)
	case Phase4Flush:
		return time.Duration(float64(c.Tau) * c.P3End)
	case PhaseExpired:
		return c.Tau
	}
	return 0
}

// StealDelay is the interval the server waits on its own clock after the
// delivery failure before stealing locks: τ(1+ε). Theorem 3.1 guarantees
// the client's lease — measured on the client's rate-synchronized clock,
// starting no later than the server's failure observation — has expired
// by then.
func (c Config) StealDelay() time.Duration { return c.Bound.Stretch(c.Tau) }

// The baselines' lease terms (internal/baselines) derive from τ here, for
// client and server alike, so the two sides cannot disagree about them: a
// heartbeat lease and a per-object lease each run τ from the send of the
// message that renewed it, and the server steals after StealDelay.

// HeartbeatInterval is how often a heartbeat-baseline client renews its
// lease: three times a term.
func (c Config) HeartbeatInterval() time.Duration { return c.Tau / 3 }

// ObjectRenewInterval is how often a per-object-baseline client renews the
// lease of every object it holds: twice a term.
func (c Config) ObjectRenewInterval() time.Duration { return c.Tau / 2 }
