// Package clockhygiene forbids direct wall-clock access in protocol
// packages.
//
// Paper property (§3): the lease bound τ(1+ε) is proved against
// rate-synchronized clocks — every timer and every timestamp the
// protocol compares must come from the node's own injected sim.Clock,
// whose rate the simulator controls and the theorem's ε budgets. A
// single stray time.Now() or time.Sleep() silently re-introduces a
// perfectly-synchronized global clock: simulations stop being
// deterministic, skew experiments measure the wrong thing, and the
// safety argument no longer describes the implementation.
//
// The pass flags any reference to time.Now, time.Sleep, time.After,
// time.AfterFunc, time.NewTimer, time.NewTicker, time.Tick, time.Since,
// or time.Until inside the protocol packages (core, client, server,
// disk, lock, cluster, shard, rpcnet, blockstore, replica, meta, and
// sim outside clock.go — clock.go IS the wall-clock shim the rest of
// the tree injects). Types and constants (time.Duration, time.Second) are fine:
// only the ambient clock is banned, not the unit system. Exemptions
// need a visible //lint:allow clockhygiene(reason) directive.
package clockhygiene

import (
	"go/ast"

	"repro/internal/analysis"
)

// Analyzer is the clockhygiene pass.
var Analyzer = &analysis.Analyzer{
	Name: "clockhygiene",
	Doc: "forbid ambient wall-clock access (time.Now, time.Sleep, timers) in protocol packages; " +
		"all protocol time must flow through the injected sim.Clock",
	Run: run,
}

// protocolPkgs names the packages (by import-path base) whose time must
// flow through the injected clock.
var protocolPkgs = map[string]bool{
	"core":       true,
	"client":     true,
	"server":     true,
	"disk":       true,
	"lock":       true,
	"cluster":    true,
	"shard":      true,
	"sim":        true,
	"rpcnet":     true,
	"blockstore": true,
	"replica":    true,
	"meta":       true,
}

// banned are the package-time functions that read or schedule against
// the ambient wall clock.
var banned = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"NewTimer":  true,
	"NewTicker": true,
	"Tick":      true,
	"Since":     true,
	"Until":     true,
}

func run(pass *analysis.Pass) error {
	if !protocolPkgs[analysis.PkgBase(pass.Pkg.Path())] {
		return nil
	}
	inSim := analysis.PkgBase(pass.Pkg.Path()) == "sim"
	for _, file := range pass.Files {
		if inSim && pass.FileBase(file.Pos()) == "clock.go" {
			// sim/clock.go is the one sanctioned wall-clock adapter: it
			// DEFINES RealClock, the injected clock of the live transport.
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !banned[sel.Sel.Name] {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
				return true
			}
			pass.Reportf(sel.Pos(),
				"time.%s bypasses the injected clock: protocol time must come from the node's sim.Clock (rate-synchronized clocks, DESIGN §3); use the clock's Now/AfterFunc or sim.Sleep, or annotate //lint:allow clockhygiene(reason)",
				sel.Sel.Name)
			return true
		})
	}
	return nil
}
