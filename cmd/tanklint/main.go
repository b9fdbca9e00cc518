// Command tanklint is the repository's protocol-invariant linter: six
// static-analysis passes that machine-check the discipline rules the
// paper's safety argument (Theorem 3.1) and the zero-copy data path
// rest on but the compiler cannot see.
//
//	clockhygiene     protocol time flows through the injected sim.Clock
//	                 (rate-synchronized clocks, DESIGN §3)
//	locksafety       no blocking operation, double-lock, or lock-order
//	                 inversion while a protocol mutex is held
//	ackdurable       a DiskWrite/FenceSet acknowledgment implies the
//	                 media call succeeded and was fsynced through the
//	                 sanctioned helper (flush-before-expiry, DESIGN §4/§9);
//	                 the server commits the metadata journal before
//	                 every control message it sends (DESIGN §15)
//	traceexhaustive  trace/drop/errno enums stay exhaustively mapped and
//	                 protocol-error paths emit their trace events
//	hotpathalloc     //tank:hotpath-marked codec primitives contain no
//	                 allocating constructs outside the buffer pool
//	                 (zero-copy wire codec, DESIGN §12)
//	bufown           flow-sensitive ownership of pooled buffers: every
//	                 bufpool.Get reaches exactly one Put or sanctioned
//	                 //tank:owns transfer on every path, no use after
//	                 Put, Envelope Retain/Release balance (DESIGN §16)
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
	"repro/internal/analysis/hotpathalloc"
	"repro/internal/analysis/locksafety"
	"repro/internal/analysis/traceexhaustive"
)

// Analyzers is the tanklint suite, in reporting order.
var Analyzers = []*analysis.Analyzer{
	clockhygiene.Analyzer,
	locksafety.Analyzer,
	ackdurable.Analyzer,
	traceexhaustive.Analyzer,
	hotpathalloc.Analyzer,
	bufown.Analyzer,
}

func main() {
	os.Exit(driver.Main(Analyzers, os.Args[1:], os.Stdout, os.Stderr))
}
