package rpcnet

import (
	"maps"
	"slices"
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

// TestTopologyDescribesTheInstallation: a node reads the installation
// off the address book — the authorities in ServerIDs() order, replica
// members folded into their group's primary, every disk in ID order, and
// its own authority's disks alone, which a member shares with its group.
func TestTopologyDescribesTheInstallation(t *testing.T) {
	topo := Topology{
		Servers:       map[msg.NodeID]string{3: "c", 1: "a", 101: "a2", 2: "b"},
		ReplicaGroups: map[msg.NodeID][]msg.NodeID{1: {1, 101}},
		Disks:         map[msg.NodeID]string{1002: "z", 1000: "x", 1001: "y"},
	}
	own := map[msg.NodeID]uint64{1000: 64}
	in := topo.installation(101, own)
	if ids := topo.ServerIDs(); len(in.Authorities) != len(ids) {
		t.Fatalf("%d authorities, want %v", len(in.Authorities), ids)
	}
	for i, id := range topo.ServerIDs() {
		a := in.Authorities[i]
		if a.ID != id || !slices.Equal(a.Group, topo.GroupOf(id)) {
			t.Errorf("authority %d = %v %v, want %v %v", i, a.ID, a.Group, id, topo.GroupOf(id))
		}
		if mine := id == 1; (a.Disks != nil) != mine {
			t.Errorf("authority %v allocates from %v as member 101 sees it", id, a.Disks)
		}
	}
	if !slices.Equal(in.Disks, []msg.NodeID{1000, 1001, 1002}) {
		t.Errorf("disks %v, want all three in ID order", in.Disks)
	}
	auths, place := in.Client()
	if len(auths) != 3 || auths[0].ID != 1 || auths[1].ID != 2 || auths[2].ID != 3 || place == nil {
		t.Errorf("client faces %+v (placement %v), want n1 n2 n3 under a hash", auths, place != nil)
	}
}
