package main

import (
	"testing"

	"repro/internal/msg"
	"repro/internal/rpcnet"
)

func TestDiskFlag(t *testing.T) {
	got := diskFlag(map[msg.NodeID]string{1000: "a:1", 1001: "b:2"})
	if got != "1000=a:1,1001=b:2" {
		t.Fatalf("diskFlag = %q", got)
	}
	if diskFlag(nil) != "" {
		t.Fatal("empty map should yield empty flag")
	}
	// A sharded tankd's book: its own disks and another authority's, all
	// of which a client dials.
	if got := diskFlag(map[msg.NodeID]string{1100: "a:1", 1000: "b:2"}); got != "1000=b:2,1100=a:1" {
		t.Fatalf("diskFlag across authorities = %q", got)
	}
}

func TestParseAddrBook(t *testing.T) {
	got, err := rpcnet.ParseAddrBook("1=127.0.0.1:7001, 2=127.0.0.1:7002")
	if err != nil || len(got) != 2 || got[1] != "127.0.0.1:7001" || got[2] != "127.0.0.1:7002" {
		t.Fatalf("ParseAddrBook = %v, %v", got, err)
	}
	if m, err := rpcnet.ParseAddrBook(""); err != nil || len(m) != 0 {
		t.Fatalf("empty: %v %v", m, err)
	}
	if _, err := rpcnet.ParseAddrBook("nonsense"); err == nil {
		t.Fatal("bad entry accepted")
	}
}

func TestReplicaGroupPrimaryIsLowestID(t *testing.T) {
	group := rpcnet.ReplicaGroup(map[msg.NodeID]string{
		201: "127.0.0.1:7003", 1: "127.0.0.1:7001", 101: "127.0.0.1:7002",
	})
	if len(group) != 3 || group[0] != 1 || group[1] != 101 || group[2] != 201 {
		t.Fatalf("group = %v, want primary n1 first", group)
	}
}
