package storagetank

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
	"time"
)

// The unified vocabulary's completeness contract: every exported With*
// option in options.go must demonstrably reach the Build the
// constructors read — NewClusterWith consumes b.Cluster verbatim, the
// live Start* constructors consume b.Cluster and b.Node. The option list
// below is checked against the source file itself (go/parser), so
// adding an option without wiring it into this table fails the test
// rather than silently shipping an inert knob.

// optionProbe exercises one option with sample arguments and verifies
// the resolved Build reflects it on every surface the option documents.
type optionProbe struct {
	opt   Option
	check func(b Build) bool
}

func optionProbes() map[string]optionProbe {
	cfg := DefaultConfig()
	cfg.Tau = 9 * time.Second
	tr := NewTracer(NewTraceRing(8))
	place := SubtreePlacement{Prefixes: map[string]int{"/a": 0}}
	return map[string]optionProbe{
		"WithSeed": {WithSeed(42), func(b Build) bool {
			return b.Cluster.Seed == 42
		}},
		"WithClients": {WithClients(5), func(b Build) bool {
			return b.Cluster.Clients == 5
		}},
		"WithDisks": {WithDisks(4), func(b Build) bool {
			return b.Cluster.Disks == 4
		}},
		"WithShards": {WithShards(3), func(b Build) bool {
			return b.Cluster.Shards == 3
		}},
		"WithReplicas": {WithReplicas(3), func(b Build) bool {
			return b.Cluster.Replicas == 3
		}},
		"WithReplicaLeaseTerm": {WithReplicaLeaseTerm(800 * time.Millisecond), func(b Build) bool {
			return b.Cluster.ReplicaLeaseTerm == 800*time.Millisecond
		}},
		"WithPlacement": {WithPlacement(place), func(b Build) bool {
			p, ok := b.Cluster.Placement.(SubtreePlacement)
			return ok && p.Prefixes["/a"] == 0
		}},
		"WithServerService": {WithServerService(2 * time.Millisecond), func(b Build) bool {
			return b.Cluster.ServerService == 2*time.Millisecond
		}},
		"WithDiskBlocks": {WithDiskBlocks(777), func(b Build) bool {
			return b.Cluster.DiskBlocks == 777
		}},
		"WithProtocol": {WithProtocol(cfg), func(b Build) bool {
			return b.Cluster.Core.Tau == 9*time.Second
		}},
		"WithPolicy": {WithPolicy(Frangipani()), func(b Build) bool {
			return b.Cluster.Policy.Name == Frangipani().Name
		}},
		"WithFlushInterval": {WithFlushInterval(123 * time.Millisecond), func(b Build) bool {
			return b.Cluster.FlushInterval == 123*time.Millisecond
		}},
		"WithFlushBatch": {WithFlushBatch(6), func(b Build) bool {
			return b.Cluster.FlushBatch == 6
		}},
		"WithCacheMaxPages": {WithCacheMaxPages(32), func(b Build) bool {
			return b.Cluster.CacheMaxPages == 32
		}},
		"WithCacheQuota": {WithCacheQuota(1 << 20), func(b Build) bool {
			return b.Cluster.CacheQuota == 1<<20
		}},
		"WithPrefetch": {WithPrefetch(5), func(b Build) bool {
			return b.Cluster.Prefetch == 5
		}},
		"WithClockSkew": {WithClockSkew(false), func(b Build) bool {
			return !b.Cluster.ClockSkew
		}},
		"WithDiskService": {WithDiskService(3 * time.Millisecond), func(b Build) bool {
			return b.Cluster.DiskService == 3*time.Millisecond &&
				b.liveDiskService == 3*time.Millisecond
		}},
		"WithoutChecker": {WithoutChecker(), func(b Build) bool {
			return b.Cluster.NoChecker
		}},
		"WithGracePeriod": {WithGracePeriod(7 * time.Second), func(b Build) bool {
			return b.Cluster.GracePeriod == 7*time.Second
		}},
		"WithTracer": {WithTracer(tr), func(b Build) bool {
			return b.Cluster.Tracer == tr && len(b.Node) == 1
		}},
		"WithMedia": {WithMedia(NewMemMedia()), func(b Build) bool {
			return len(b.Node) == 1
		}},
		"WithFaults": {WithFaults(NewFaults(1), nil), func(b Build) bool {
			return len(b.Node) == 1
		}},
		"WithRegistry": {WithRegistry(NewStatsRegistry()), func(b Build) bool {
			return len(b.Node) == 1
		}},
	}
}

// exportedOptions lists every exported With* func in options.go that
// returns Option, straight from the source.
func exportedOptions(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "options.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Recv != nil || !fd.Name.IsExported() || !strings.HasPrefix(fd.Name.Name, "With") {
			continue
		}
		rs := fd.Type.Results
		if rs == nil || len(rs.List) != 1 {
			continue
		}
		if id, ok := rs.List[0].Type.(*ast.Ident); !ok || id.Name != "Option" {
			continue
		}
		names = append(names, fd.Name.Name)
	}
	return names
}

func TestEveryExportedOptionRoundTrips(t *testing.T) {
	probes := optionProbes()
	names := exportedOptions(t)
	if len(names) == 0 {
		t.Fatal("no With* options found in options.go")
	}
	seen := map[string]bool{}
	for _, name := range names {
		seen[name] = true
		p, ok := probes[name]
		if !ok {
			t.Errorf("option %s has no probe: add it to optionProbes", name)
			continue
		}
		if !p.check(Resolve(p.opt)) {
			t.Errorf("option %s did not reach the resolved Build", name)
		}
	}
	for name := range probes {
		if !seen[name] {
			t.Errorf("probe %s matches no exported option in options.go", name)
		}
	}
	// And the defaults stay default when no option is applied: a probe
	// passing against the zero Resolve() would be vacuous.
	base := Resolve()
	for name, p := range probes {
		if name == "WithClockSkew" || name == "WithPrefetch" {
			// Sample values that coincide with (or normalize into) the
			// defaults are exempt from the vacuity check.
			continue
		}
		if p.check(base) {
			t.Errorf("probe %s passes against the default Build: it asserts nothing", name)
		}
	}
}
