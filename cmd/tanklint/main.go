// Command tanklint is the repository's protocol-invariant linter: five
// static-analysis passes that machine-check the discipline rules the
// paper's safety argument (Theorem 3.1) and the zero-copy data path
// rest on but the compiler cannot see. Each checks a rule whose breach
// corrupts or loses bytes or stalls the lease machinery; what a rule
// breach would only cost in allocations is pinned by allocation tests
// beside the hot paths' benchmarks instead.
//
//	clockhygiene     protocol time flows through the injected sim.Clock
//	                 (rate-synchronized clocks, DESIGN §3)
//	locksafety       no blocking operation, double-lock, or lock-order
//	                 inversion while a protocol mutex is held
//	ackdurable       a DiskWrite/FenceSet acknowledgment implies the
//	                 media call succeeded (flush-before-expiry, DESIGN
//	                 §4/§9); every fsync in the tree goes through one
//	                 function, blockstore's (*Syncer).fsync (DESIGN §9);
//	                 the server commits the metadata journal before
//	                 every control message it sends (DESIGN §15)
//	traceexhaustive  trace/drop/errno enums stay exhaustively mapped and
//	                 protocol-error paths emit their trace events
//	bufown           a pooled buffer is Put at most once and never used
//	                 after, and no Envelope.Release goes past its borrow
//	                 (flow-sensitive, DESIGN §16)
//
// Usage:
//
//	tanklint [patterns]   # analyze packages (default ./...)
//	tanklint help [pass]  # pass docs and the tree's exemptions
//
// Site-level exemptions use a visible, reasoned directive:
//
//	//lint:allow clockhygiene(measures real fsync latency)
//
// The binary exits 0 when clean, 2 when findings were reported.
package main

import (
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/ackdurable"
	"repro/internal/analysis/bufown"
	"repro/internal/analysis/clockhygiene"
	"repro/internal/analysis/driver"
	"repro/internal/analysis/locksafety"
	"repro/internal/analysis/traceexhaustive"
)

// Analyzers is the tanklint suite, in reporting order.
var Analyzers = []*analysis.Analyzer{
	clockhygiene.Analyzer,
	locksafety.Analyzer,
	ackdurable.Analyzer,
	traceexhaustive.Analyzer,
	bufown.Analyzer,
}

func main() {
	os.Exit(driver.Main(Analyzers, os.Args[1:], os.Stdout, os.Stderr))
}
