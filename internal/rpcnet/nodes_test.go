package rpcnet

import (
	"maps"
	"testing"

	"repro/internal/msg"
)

// TestParseAddrBook: the address flags of tankd and tankcli parse to
// the book they spell, and anything that is not one — a malformed entry,
// an ID that is not a node ID or is listed twice, an empty address — is
// an error, not a silently different book.
func TestParseAddrBook(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want map[msg.NodeID]string // nil: rejected
	}{
		{"", map[msg.NodeID]string{}},
		{"1=127.0.0.1:7001, 2=127.0.0.1:7002", map[msg.NodeID]string{1: "127.0.0.1:7001", 2: "127.0.0.1:7002"}},
		{"1000=127.0.0.1:7101, 1001=127.0.0.1:7102", map[msg.NodeID]string{1000: "127.0.0.1:7101", 1001: "127.0.0.1:7102"}},
		{"2147483647=h:1", map[msg.NodeID]string{2147483647: "h:1"}},
		{"nonsense", nil},
		{"abc=addr", nil},
		{"4294967297=127.0.0.1:9", nil}, // would truncate to n1
		{"2147483648=h:1", nil},
		{"0=h:1", nil},
		{"-3=h:1", nil},
		{"1=a,1=b", nil},
		{"2=", nil},
	} {
		got, err := ParseAddrBook(tc.in)
		if tc.want == nil {
			if err == nil {
				t.Errorf("ParseAddrBook(%q) = %v, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || !maps.Equal(got, tc.want) {
			t.Errorf("ParseAddrBook(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}
