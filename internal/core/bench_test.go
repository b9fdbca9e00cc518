package core

import (
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/sim"
)

// BenchmarkChannelCall is one request answered in time: Call, then the
// ACK through HandleReply, which renews the lease. Neither arms a timer
// while the retransmission queue's and the lease boundary's are armed,
// so timers/op is 0.
func BenchmarkChannelCall(b *testing.B) {
	s := sim.NewScheduler(1)
	clock := &sim.CountingClock{Clock: s.NewClock(1, 0)}
	cfg := DefaultConfig()
	lease := NewLeaseClient(cfg, clock, nopLease{}, Env{})
	c := NewChannel(3, 1, cfg, clock, func(msg.NodeID, msg.Message) {}, lease, Env{})
	req := &msg.KeepAlive{}
	reply := &msg.Reply{Client: 3, Status: msg.ACK}
	lease.Renewed(0)
	reply.Req = c.Call(req, nil) // arms the queue's timer
	c.HandleReply(reply)
	armed := clock.Armed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunFor(time.Nanosecond) // each call is sent later, so each ACK renews
		reply.Req = c.Call(req, nil)
		c.HandleReply(reply)
	}
	b.StopTimer()
	b.ReportMetric(float64(clock.Armed()-armed)/float64(b.N), "timers/op")
}

type nopLease struct{}

func (nopLease) SendKeepAlive()         {}
func (nopLease) Quiesce()               {}
func (nopLease) Flush(done func())      { done() }
func (nopLease) Expired()               {}
func (nopLease) PhaseChange(_, _ Phase) {}
