package client

import (
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/sim"
)

// BenchmarkSANCall is one SAN call answered in time: a read issued, then
// the disk's reply through DeliverSAN. The request and the reply are made
// once, so what a call allocates is its entry in the client's table of SAN
// calls; it arms no timer while the table's retransmission timer is armed,
// so timers/op is 0.
func BenchmarkSANCall(b *testing.B) {
	s := sim.NewScheduler(1)
	clock := &sim.CountingClock{Clock: s.NewClock(1, 0)}
	nop := func(msg.NodeID, msg.Message) {}
	c := New(10, 1, Config{Core: core.DefaultConfig(), Policy: baselines.StorageTank()},
		clock, nop, nop, nil, nil, nil)
	req := &msg.DiskRead{Client: 10, Authority: 1}
	build := func(id msg.ReqID, epoch msg.Epoch) msg.Message {
		req.Req, req.Epoch = id, epoch
		return req
	}
	reply := &msg.DiskReadRes{}
	answered := 0
	done := func(msg.Message, msg.Errno) { answered++ }
	call := func() {
		c.sanCall(100, build, nil, done)
		reply.Req = req.Req
		c.DeliverSAN(msg.Envelope{From: 100, To: 10, Payload: reply})
	}
	call() // arms the queue's timer
	armed := clock.Armed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call()
	}
	b.StopTimer()
	if answered != b.N+1 || c.sanCalls.Len() != 0 {
		b.Fatalf("%d of %d calls answered, %d still held", answered, b.N+1, c.sanCalls.Len())
	}
	b.ReportMetric(float64(clock.Armed()-armed)/float64(b.N), "timers/op")
}
