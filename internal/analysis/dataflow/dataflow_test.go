package dataflow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"repro/internal/analysis/cfg"
)

// The test client runs classic reaching-definedness over a single
// variable "x": the state records whether x has definitely been
// assigned, maybe, or not at all — a three-point lattice exercising
// joins and loops.

type defState struct {
	// 1 = assigned, 2 = unassigned; 3 = maybe (join of both).
	bits uint8
}

func (s *defState) Clone() State { c := *s; return &c }
func (s *defState) JoinInto(other State) bool {
	o := other.(*defState)
	merged := s.bits | o.bits
	changed := merged != s.bits
	s.bits = merged
	return changed
}

type defClient struct{}

func (c *defClient) Transfer(n ast.Node, s State, report bool) {
	st := s.(*defState)
	if as, ok := n.(*ast.AssignStmt); ok {
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name == "x" {
				st.bits = 1
			}
		}
	}
}

func buildGraph(t *testing.T, body string) *cfg.Graph {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return cfg.New(f.Decls[0].(*ast.FuncDecl).Body)
}

func exitBits(t *testing.T, body string) uint8 {
	t.Helper()
	g := buildGraph(t, body)
	res, err := Forward(g, &defState{bits: 2}, &defClient{})
	if err != nil {
		t.Fatal(err)
	}
	in := res.In[g.Exit.Index]
	if in == nil {
		t.Fatalf("exit unreachable:\n%s", g)
	}
	return in.(*defState).bits
}

func TestStraightLineAssign(t *testing.T) {
	if bits := exitBits(t, "var x int\nx = 1\n_ = x"); bits != 1 {
		t.Fatalf("x should be definitely assigned, bits=%b", bits)
	}
}

func TestBranchDependentAssignJoins(t *testing.T) {
	// x assigned only in the then-branch: exit must see the join
	// (assigned | unassigned).
	bits := exitBits(t, "var x int\nvar y int\nif y > 0 { x = 1 }\n_ = x")
	if bits != 3 {
		t.Fatalf("branch-dependent assignment should join to maybe (3), bits=%b", bits)
	}
}

func TestBothBranchesAssign(t *testing.T) {
	bits := exitBits(t, "var x, y int\nif y > 0 { x = 1 } else { x = 2 }\n_ = x")
	if bits != 1 {
		t.Fatalf("x assigned on both branches should stay definite, bits=%b", bits)
	}
}

func TestLoopReachesFixpoint(t *testing.T) {
	// Assignment inside a loop body that may run zero times.
	bits := exitBits(t, "var x int\nfor i := 0; i < 3; i++ { x = 1 }\n_ = x")
	if bits != 3 {
		t.Fatalf("loop-conditional assignment should be maybe, bits=%b", bits)
	}
}

func TestInfiniteLoopNoExitState(t *testing.T) {
	g := buildGraph(t, "var x int\nfor { x = 1; _ = x }")
	res, err := Forward(g, &defState{bits: 2}, &defClient{})
	if err != nil {
		t.Fatal(err)
	}
	if res.In[g.Exit.Index] != nil {
		t.Fatal("for{} must leave exit state nil")
	}
}

func TestReportVisitsReachableBlocksOnce(t *testing.T) {
	g := buildGraph(t, "var x, y int\nif y > 0 { x = 1 } else { x = 2 }\n_ = x")
	res, err := Forward(g, &defState{bits: 2}, &defClient{})
	if err != nil {
		t.Fatal(err)
	}
	var visited []string
	rc := &recordingClient{visit: &visited}
	Report(g, res, rc)
	// Every reachable node visited exactly once.
	seen := map[string]int{}
	for _, v := range visited {
		seen[v]++
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("node %s visited %d times in report pass", v, n)
		}
	}
}

type recordingClient struct{ visit *[]string }

func (r *recordingClient) Transfer(n ast.Node, s State, report bool) {
	if !report {
		return
	}
	*r.visit = append(*r.visit, nodeKey(n))
}

func nodeKey(n ast.Node) string {
	var sb strings.Builder
	ast.Fprint(&sb, nil, n, nil)
	return sb.String()[:min(40, sb.Len())] + ":" + posKey(n)
}
func posKey(n ast.Node) string { return string(rune(int(n.Pos()))) }
func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
