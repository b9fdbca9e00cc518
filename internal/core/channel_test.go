package core

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/stats"
)

// wire captures messages sent by the channel.
type wire struct {
	sent []msg.Message
}

func (w *wire) send(to msg.NodeID, m msg.Message) { w.sent = append(w.sent, m) }

func newChan(t *testing.T) (*sim.Scheduler, *wire, *Channel, *stats.Registry) {
	t.Helper()
	s := sim.NewScheduler(5)
	w := &wire{}
	reg := stats.NewRegistry()
	c := NewChannel(3, 1, testCfg(), s.NewClock(1, 0), w.send, nil, Env{Reg: reg, Prefix: "c3."})
	return s, w, c, reg
}

func TestCallFillsHeaderAndSends(t *testing.T) {
	_, w, c, _ := newChan(t)
	c.SetEpoch(7)
	req := &msg.Lookup{Path: "/x"}
	id := c.Call(req, nil)
	if req.Client != 3 || req.Req != id || req.Epoch != 7 {
		t.Fatalf("header = %+v", req.ReqHeader)
	}
	if len(w.sent) != 1 || w.sent[0] != req {
		t.Fatal("request not sent")
	}
	if c.Pending() != 1 {
		t.Fatalf("pending = %d", c.Pending())
	}
}

func TestRetriesUntilReply(t *testing.T) {
	s, w, c, reg := newChan(t)
	id := c.Call(&msg.KeepAlive{}, nil)
	s.RunUntil(sim.Time(350 * time.Millisecond)) // 3 retries at 100ms interval
	if len(w.sent) != 4 {
		t.Fatalf("sent = %d, want 1 original + 3 retries", len(w.sent))
	}
	c.HandleReply(&msg.Reply{Client: 3, Req: id, Status: msg.ACK})
	s.RunUntil(sim.Time(time.Second))
	if len(w.sent) != 4 {
		t.Fatal("retries continued after reply")
	}
	if reg.CounterValue("c3.chan.retries") != 3 || reg.CounterValue("c3.chan.acks") != 1 {
		t.Fatal("retry/ack counters wrong")
	}
}

func TestReplyDispatchAndDuplicateDrop(t *testing.T) {
	_, _, c, _ := newChan(t)
	var got *msg.Reply
	calls := 0
	id := c.Call(&msg.GetAttr{Ino: 9}, func(r *msg.Reply) { got = r; calls++ })
	r := &msg.Reply{Client: 3, Req: id, Status: msg.ACK, Err: msg.OK, Body: msg.AttrRes{Attr: msg.Attr{Ino: 9}}}
	c.HandleReply(r)
	c.HandleReply(r) // duplicate
	c.HandleReply(&msg.Reply{Client: 3, Req: 999, Status: msg.ACK})
	if calls != 1 || got != r {
		t.Fatalf("callback calls = %d", calls)
	}
	if c.Pending() != 0 {
		t.Fatal("pending not cleared")
	}
}

func TestACKRenewsLeaseFromFirstSend(t *testing.T) {
	s := sim.NewScheduler(5)
	w := &wire{}
	reg := stats.NewRegistry()
	rec := &actionsRec{s: s, autoFlush: true}
	lease := NewLeaseClient(testCfg(), s.NewClock(1, 0), rec, Env{Reg: reg, Prefix: "c3."})
	c := NewChannel(3, 1, testCfg(), s.NewClock(1, 0), w.send, lease, Env{Reg: reg, Prefix: "c3."})

	// Send at t=1s; reply arrives at t=3s after retries. The lease must
	// start from 1s (first send), not from any retry time.
	s.At(sim.Time(time.Second), func() {
		id := c.Call(&msg.KeepAlive{}, nil)
		s.At(sim.Time(3*time.Second), func() {
			c.HandleReply(&msg.Reply{Client: 3, Req: id, Status: msg.ACK})
		})
	})
	s.RunUntil(sim.Time(3 * time.Second))
	if lease.Phase() != Phase1Valid {
		t.Fatalf("phase = %v", lease.Phase())
	}
	if lease.Start() != sim.Time(time.Second) {
		t.Fatalf("lease start = %v, want 1s (tC1 of first attempt)", lease.Start())
	}
}

func TestNACKNotifiesLease(t *testing.T) {
	s := sim.NewScheduler(5)
	w := &wire{}
	reg := stats.NewRegistry()
	rec := &actionsRec{s: s, autoFlush: true}
	lease := NewLeaseClient(testCfg(), s.NewClock(1, 0), rec, Env{Reg: reg, Prefix: "c3."})
	c := NewChannel(3, 1, testCfg(), s.NewClock(1, 0), w.send, lease, Env{Reg: reg, Prefix: "c3."})
	lease.Renewed(0)
	var got *msg.Reply
	id := c.Call(&msg.Lookup{Path: "/x"}, func(r *msg.Reply) { got = r })
	c.HandleReply(&msg.Reply{Client: 3, Req: id, Status: msg.NACK})
	if lease.Phase() != Phase3Suspect {
		t.Fatalf("lease phase = %v after NACK", lease.Phase())
	}
	if got == nil || got.Status != msg.NACK {
		t.Fatal("callback did not see the NACK")
	}
}

// A request stamped under a registration the channel has since replaced
// is refused for that epoch: its caller hears the NACK, the lease — which
// belongs to the registration that replaced it — does not.
func TestNACKOfReplacedEpochSparesLease(t *testing.T) {
	s := sim.NewScheduler(5)
	w := &wire{}
	reg := stats.NewRegistry()
	rec := &actionsRec{s: s, autoFlush: true}
	lease := NewLeaseClient(testCfg(), s.NewClock(1, 0), rec, Env{Reg: reg, Prefix: "c3."})
	c := NewChannel(3, 1, testCfg(), s.NewClock(1, 0), w.send, lease, Env{Reg: reg, Prefix: "c3."})
	c.SetEpoch(3)
	lease.Renewed(0)
	var got *msg.Reply
	id := c.Call(&msg.Lookup{Path: "/x"}, func(r *msg.Reply) { got = r })
	c.SetEpoch(4) // a reassertion completed while the lookup was in flight
	c.HandleReply(&msg.Reply{Client: 3, Req: id, Status: msg.NACK})
	if lease.Phase() != Phase1Valid {
		t.Fatalf("lease phase = %v after a NACK for a replaced epoch", lease.Phase())
	}
	if got == nil || got.Status != msg.NACK {
		t.Fatal("callback did not see the NACK")
	}
}

func TestCancelAll(t *testing.T) {
	s, w, c, _ := newChan(t)
	var replies []*msg.Reply
	c.Call(&msg.KeepAlive{}, func(r *msg.Reply) { replies = append(replies, r) })
	c.Call(&msg.GetAttr{Ino: 1}, func(r *msg.Reply) { replies = append(replies, r) })
	c.CancelAll()
	if len(replies) != 2 || replies[0] != nil || replies[1] != nil {
		t.Fatalf("cancelled callbacks got %v", replies)
	}
	if c.Pending() != 0 {
		t.Fatal("pending after CancelAll")
	}
	before := len(w.sent)
	s.RunUntil(sim.Time(time.Second))
	if len(w.sent) != before {
		t.Fatal("retries continued after CancelAll")
	}
}

// CancelAll fires its callbacks in the order the calls were issued: a run
// is replayed from its seed, so nothing it does may depend on an order
// the runtime chooses. Each round cancels eight calls; a call issued from
// a callback survives.
func TestCancelAllInIssueOrder(t *testing.T) {
	_, _, c, _ := newChan(t)
	for round := 0; round < 4; round++ {
		var ids, got []msg.ReqID
		for i := 0; i < 8; i++ {
			var id msg.ReqID
			id = c.Call(&msg.KeepAlive{}, func(r *msg.Reply) {
				if r == nil {
					got = append(got, id)
				}
			})
			ids = append(ids, id)
		}
		c.CancelAll()
		if !slices.Equal(got, ids) {
			t.Fatalf("round %d: cancelled %v, issued %v", round, got, ids)
		}
	}
	var late msg.ReqID
	c.Call(&msg.KeepAlive{}, func(*msg.Reply) { late = c.Call(&msg.KeepAlive{}, nil) })
	c.CancelAll()
	if late == 0 || c.Pending() != 1 {
		t.Fatalf("a call issued from a cancellation: id %d, %d pending, want it to survive", late, c.Pending())
	}
}

func TestReqIDsMonotonic(t *testing.T) {
	_, _, c, _ := newChan(t)
	a := c.Call(&msg.KeepAlive{}, nil)
	b := c.Call(&msg.KeepAlive{}, nil)
	if b <= a {
		t.Fatalf("req ids not increasing: %d then %d", a, b)
	}
	if c.Server() != 1 {
		t.Fatal("Server() wrong")
	}
}

// TestChannelAtMostOnceUnderLossProperty drives a channel and a reply
// cache through a lossy link: whatever the loss pattern, every request
// executes at most once at the server and completes exactly once at the
// client.
func TestChannelAtMostOnceUnderLossProperty(t *testing.T) {
	f := func(seed int64, lossPct uint8) bool {
		loss := float64(lossPct%60) / 100.0 // 0..59% loss
		s := sim.NewScheduler(seed)
		rng := s.Rand()
		reg := stats.NewRegistry()
		rc := NewReplyCache(64, reg, "srv.")

		executions := make(map[msg.ReqID]int)
		var deliverToClient func(r *msg.Reply)

		// Server: admit through the reply cache, execute, reply over the
		// lossy link.
		serverRecv := func(req msg.Request) {
			h := req.Hdr()
			disp, cached := rc.Admit(h.Client, h.Req)
			var reply *msg.Reply
			switch disp {
			case Execute:
				executions[h.Req]++
				reply = &msg.Reply{Client: h.Client, Req: h.Req, Status: msg.ACK}
				rc.Complete(h.Client, h.Req, reply)
			case Resend:
				reply = cached
			case Absorb:
				return
			}
			if rng.Float64() >= loss { // reply survives
				r := reply
				s.After(time.Millisecond, func() { deliverToClient(r) })
			}
		}

		cfg := testCfg()
		cfg.RetryInterval = 5 * time.Millisecond
		ch := NewChannel(3, 1, cfg, s.NewClock(1, 0), func(to msg.NodeID, m msg.Message) {
			if rng.Float64() >= loss { // request survives
				req := m.(msg.Request)
				s.After(time.Millisecond, func() { serverRecv(req) })
			}
		}, nil, Env{Reg: reg, Prefix: "c."})
		deliverToClient = ch.HandleReply

		const calls = 25
		completions := make(map[msg.ReqID]int)
		for i := 0; i < calls; i++ {
			i := i
			s.After(time.Duration(i)*10*time.Millisecond, func() {
				var id msg.ReqID
				id = ch.Call(&msg.KeepAlive{}, func(r *msg.Reply) {
					if r == nil || r.Status != msg.ACK {
						t.Errorf("unexpected outcome %v", r)
					}
					completions[id]++
				})
			})
		}
		s.RunUntil(sim.Time(time.Minute))

		for id, n := range executions {
			if n != 1 {
				t.Logf("req %d executed %d times", id, n)
				return false
			}
		}
		if len(completions) != calls {
			t.Logf("completions = %d, want %d", len(completions), calls)
			return false
		}
		for id, n := range completions {
			if n != 1 {
				t.Logf("req %d completed %d times", id, n)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
