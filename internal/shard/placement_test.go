package shard_test

import (
	"fmt"
	"testing"

	"repro/internal/shard"
)

func TestHashIsTotalStableAndBalanced(t *testing.T) {
	h := shard.Hash{N: 4}
	var load [4]int
	for i := 0; i < 4000; i++ {
		path := fmt.Sprintf("/w%d/f%d", i%50, i)
		idx, ok := h.Owner(path)
		if !ok || idx < 0 || idx >= h.N {
			t.Fatalf("Owner(%q) = %d, %v", path, idx, ok)
		}
		if again, _ := h.Owner(path); again != idx {
			t.Fatalf("Owner(%q) moved: %d then %d", path, idx, again)
		}
		load[idx]++
	}
	for idx, n := range load {
		if n < 800 || n > 1200 {
			t.Errorf("shard %d owns %d of 4000 paths", idx, n)
		}
	}
	if _, ok := (shard.Hash{}).Owner("/x"); ok {
		t.Error("a hash over no shards placed a path")
	}
}

func TestSubtreeLongestPrefixWins(t *testing.T) {
	p := shard.Subtree{Prefixes: map[string]int{"/home": 0, "/home/alice": 1, "/scratch": 2}}
	for path, want := range map[string]int{
		"/home":             0,
		"/home/bob/notes":   0,
		"/home/alice":       1,
		"/home/alice/x/y":   1,
		"/scratch/tmp":      2,
		"/home/alicette/no": 0, // a prefix matches whole components only
	} {
		if got, ok := p.Owner(path); !ok || got != want {
			t.Errorf("Owner(%q) = %d, %v; want %d", path, got, ok, want)
		}
	}
	for _, path := range []string{"/", "/homework", "/other/file"} {
		if _, ok := p.Owner(path); ok {
			t.Errorf("Owner(%q) placed a path no prefix covers", path)
		}
	}
	all := shard.Subtree{Prefixes: map[string]int{"/": 3, "/home": 0}}
	if got, ok := all.Owner("/other/file"); !ok || got != 3 {
		t.Errorf("catch-all: Owner = %d, %v; want 3", got, ok)
	}
}
