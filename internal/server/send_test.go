package server

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestSendCountsWithoutAllocating pins the price of exact byte
// accounting on the server's send path: the frame is sized by a layout
// walk on a Coder the server keeps, so counting allocates nothing.
func TestSendCountsWithoutAllocating(t *testing.T) {
	clock := sim.NewScheduler(1).NewClock(1, 0)
	nop := func(msg.NodeID, msg.Message) {}
	s := New(1, Config{Core: core.DefaultConfig()}, clock, nop, nop, nil, nil)
	r := &msg.Reply{Client: 10, Req: 7, Status: msg.ACK, Body: msg.LockRes{
		Mode: msg.LockShared, HaveMap: true, Map: make(msg.Extents, 4)}}
	if got := testing.AllocsPerRun(1000, func() { s.send(10, r) }); got != 0 {
		t.Errorf("send: %v allocs, want 0", got)
	}
	meta, tail, err := msg.BinarySize(&msg.Envelope{From: 1, To: 10, Payload: r})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.bytesOut.Value(), s.msgsOut.Value()*uint64(meta+len(tail)); got != want {
		t.Errorf("bytes_out %d over %d sends, want %d", got, s.msgsOut.Value(), want)
	}
}

// TestMetaFsyncsAreCounted: the metadata journal's fsyncs land in the
// server's registry. Recovery checkpoints: the snapshot and the empty
// log are each fsynced, then renamed into place and their directory
// fsynced.
func TestMetaFsyncsAreCounted(t *testing.T) {
	clock := sim.NewScheduler(1).NewClock(1, 0)
	nop := func(msg.NodeID, msg.Message) {}
	reg := stats.NewRegistry()
	s := New(1, Config{Core: core.DefaultConfig(), Disks: map[msg.NodeID]uint64{1000: 64},
		MetaPersist: filepath.Join(t.TempDir(), "meta.json")}, clock, nop, nop, reg, nil)
	defer s.Stop()
	if got := reg.CounterValue("server.meta.fsyncs"); got != 2 {
		t.Errorf("server.meta.fsyncs = %d after recovery, want 2", got)
	}
	if got := reg.Histogram("server.meta.fsync_wait").Count(); got != 2 {
		t.Errorf("server.meta.fsync_wait holds %d samples, want 2", got)
	}
	if got := reg.CounterValue("server.meta.dir_fsyncs"); got != 2 {
		t.Errorf("server.meta.dir_fsyncs = %d after recovery, want 2", got)
	}
}
