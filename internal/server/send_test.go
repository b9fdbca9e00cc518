package server

import (
	"testing"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/sim"
)

// TestSendCountsWithoutAllocating pins the price of exact byte
// accounting on the server's send path: the frame is sized by a layout
// walk on a Coder the server keeps, so counting allocates nothing.
func TestSendCountsWithoutAllocating(t *testing.T) {
	clock := sim.NewScheduler(1).NewClock(1, 0)
	nop := func(msg.NodeID, msg.Message) {}
	s := New(1, Config{Core: core.DefaultConfig()}, clock, nop, nop, nil, nil)
	r := &msg.Reply{Client: 10, Req: 7, Status: msg.ACK, Body: msg.LockRes{
		Mode: msg.LockShared, HaveMap: true, Blocks: make([]msg.BlockRef, 4)}}
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
