package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/tables.golden from this tree's output")

// TestTablesGolden is the refactor oracle ROADMAP names: every
// experiment's rendered table and metrics at seed 1, full scale, byte for
// byte. The simulator is deterministic, so a change that moves no
// protocol behaviour moves nothing here; one that does shows exactly
// which tables it moved. Run with -update when the move is intended.
func TestTablesGolden(t *testing.T) {
	var got strings.Builder
	for _, e := range All() {
		got.WriteString(e.Run(Params{Seed: 1}).String())
		got.WriteString("\n")
	}
	path := filepath.Join("testdata", "tables.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(want, []byte(got.String())) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got.String(), "\n")
	for i := 0; i < len(wantLines) && i < len(gotLines); i++ {
		if wantLines[i] != gotLines[i] {
			t.Fatalf("tables.golden line %d:\n want %q\n  got %q", i+1, wantLines[i], gotLines[i])
		}
	}
	t.Fatalf("tables.golden: %d lines, got %d", len(wantLines), len(gotLines))
}
