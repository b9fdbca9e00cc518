package main

import (
	"testing"

	"repro/internal/msg"
	"repro/internal/rpcnet"
)

func TestParseDisks(t *testing.T) {
	got, err := rpcnet.ParseAddrBook("1000=127.0.0.1:7101, 1001=127.0.0.1:7102")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1000] != "127.0.0.1:7101" || got[1001] != "127.0.0.1:7102" {
		t.Fatalf("parsed = %v", got)
	}
	if m, err := rpcnet.ParseAddrBook(""); err != nil || len(m) != 0 {
		t.Fatalf("empty: %v %v", m, err)
	}
	if _, err := rpcnet.ParseAddrBook("nonsense"); err == nil {
		t.Fatal("malformed entry accepted")
	}
	if _, err := rpcnet.ParseAddrBook("abc=addr"); err == nil {
		t.Fatal("non-numeric id accepted")
	}
}

func TestReplicaGroupOrdering(t *testing.T) {
	group := rpcnet.ReplicaGroup(map[msg.NodeID]string{
		201: "c:3", 1: "a:1", 101: "b:2",
	})
	if len(group) != 3 || group[0] != 1 || group[1] != 101 || group[2] != 201 {
		t.Fatalf("group = %v, want [n1 n101 n201]", group)
	}
}
