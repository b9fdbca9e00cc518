package client

import (
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestOnlyTheConstructorReadsThePolicy keeps the seams from rotting: the
// policy is turned into seams in client.go (newClient), and no other file of
// the package may import the package that defines it.
func TestOnlyTheConstructorReadsThePolicy(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	const baselines = "repro/internal/baselines"
	picker := false
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path != baselines {
				continue
			}
			if name != "client.go" {
				t.Errorf("%s imports %s: only client.go picks the seams", name, baselines)
			}
			picker = true
		}
	}
	if !picker {
		t.Errorf("client.go no longer imports %s: this test checks nothing", baselines)
	}
}
