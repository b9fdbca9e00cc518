package cluster

import (
	"bytes"
	"testing"

	"repro/internal/msg"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// The write→read handoff (DESIGN.md §19): one client writes a block, the
// other must read it back, and next time round they swap. What that costs
// is the paper's own subject, so the budget is a test.

// pingPong is two clients holding /shared open for writing.
type pingPong struct {
	t  *testing.T
	cl *Cluster
	h  [2]msg.Handle
	n  int
}

func newPingPong(t *testing.T, opts Options) *pingPong {
	t.Helper()
	cl := New(opts)
	cl.Start()
	p := &pingPong{t: t, cl: cl}
	p.h[0], _ = cl.MustOpen(0, "/shared", true, true)
	for idx := uint64(0); idx < 4; idx++ {
		mustWrite(t, cl, 0, p.h[0], idx, block('0'))
	}
	if errno := cl.Sync(0); errno != msg.OK {
		t.Fatalf("sync: %v", errno)
	}
	p.h[1], _ = cl.MustOpen(1, "/shared", true, false)
	return p
}

// handoff is one operation: the writer alternates, the other client reads
// the block back and must see what was just written.
func (p *pingPong) handoff() {
	p.t.Helper()
	p.n++
	w, r := p.n%2, 1-p.n%2
	idx, want := uint64(p.n%4), block(byte('a'+p.n%26))
	mustWrite(p.t, p.cl, w, p.h[w], idx, want)
	if got, errno := p.cl.Read(r, p.h[r], idx); errno != msg.OK || !bytes.Equal(got, want) {
		p.t.Fatalf("handoff %d: client %d reads block %d back as %.4q… (%v), want %.4q…", p.n, r, idx, got, errno, want)
	}
}

// TestHandoffBudget: a handoff in steady state is 11 control messages, 4
// server transactions and 2 demands. Of the 14 messages it used to be,
// the three that went were not the safety argument: the GetBlocks round
// trip behind every grant (the grant carries the map) and the DemandAck of
// a holder whose LockDowngraded leaves in the same turn (the report is the
// delivery proof). The one DemandAck left is the flushing holder's — its
// report has to wait for the disk, and the server must not.
func TestHandoffBudget(t *testing.T) {
	p := newPingPong(t, DefaultOptions())
	for i := 0; i < 4; i++ { // both clients have held both modes
		p.handoff()
	}
	count := func() [5]uint64 {
		sent, _, _ := p.cl.Control.Counts()
		return [5]uint64{sent,
			p.cl.Reg.CounterValue("server.transactions"),
			p.cl.Reg.CounterValue("server.demands_sent"),
			p.cl.Reg.CounterValue("net.control.sent.demand-ack"),
			p.cl.Reg.CounterValue("net.san.sent.san-io")}
	}
	const rounds = 10
	before := count()
	for i := 0; i < rounds; i++ {
		p.handoff()
	}
	after := count()
	for i, want := range [5]struct {
		what string
		per  uint64
	}{
		{"control messages", 11},
		{"server transactions", 4},
		{"demands", 2},
		{"DemandAcks", 1},
		{"SAN requests", 2}, // the flush and the read
	} {
		if got := after[i] - before[i]; got != rounds*want.per {
			t.Errorf("%d handoffs cost %d %s, want %d each", rounds, got, want.what, want.per)
		}
	}
	noViolations(t, p.cl)
}

// TestHandoffSurvivesLostReports: on a lossy control network the report
// that stood for its DemandAck can be dropped, and then the server has
// heard nothing of its demand. It must do what it does for a lost ack —
// demand again — and the client, complied long since, must report again;
// the retries must never run out against a client that is alive.
func TestHandoffSurvivesLostReports(t *testing.T) {
	opts := DefaultOptions()
	opts.Control.LossProb = 0.05
	// One clock rate: the server's retry timer and the client's run for the
	// same time, and the demand left first — so the server always demands
	// again before the channel's own retry of the report can reach it.
	opts.ClockSkew = false
	ring := trace.NewRing(1 << 16)
	opts.Tracer = trace.New(ring)
	p := newPingPong(t, opts)

	// What the wire saw of each demand.
	type seen struct {
		demands    int                // transmissions
		arrived    int                // of which delivered
		acked      bool               // a DemandAck got through
		reports    map[msg.ReqID]bool // distinct LockDowngraded requests
		reported   bool               // one got through
		lostReport bool               // one was dropped before any got through
	}
	byID := map[msg.DemandID]*seen{}
	of := func(id msg.DemandID) *seen {
		if byID[id] == nil {
			byID[id] = &seen{reports: map[msg.ReqID]bool{}}
		}
		return byID[id]
	}
	count := p.cl.Control.Observer
	p.cl.Control.Observer = func(e simnet.Event) {
		count(e)
		switch m := e.Env.Payload.(type) {
		case *msg.Demand:
			of(m.ID).demands++ // one event per send: its drop or its delivery
			if e.Delivered {
				of(m.ID).arrived++
			}
		case *msg.DemandAck:
			if e.Delivered {
				of(m.ID).acked = true
			}
		case *msg.LockDowngraded:
			s := of(m.Demand)
			s.reports[m.Req] = true
			switch {
			case e.Delivered:
				s.reported = true
			case !s.reported:
				s.lostReport = true
			}
		}
	}
	for i := 0; i < 60; i++ {
		p.handoff()
	}

	lost, again := 0, 0
	for id, s := range byID {
		if s.acked || !s.lostReport {
			continue
		}
		lost++
		if s.demands < 2 {
			t.Errorf("demand %d: its only proof of delivery was dropped and the server sent it %d time(s)", id, s.demands)
		}
		if !s.reported || len(s.reports) < s.arrived {
			t.Errorf("demand %d arrived %d time(s) and was reported %d time(s) (one got through: %v)",
				id, s.arrived, len(s.reports), s.reported)
		}
		if s.arrived > 1 {
			again++
		}
	}
	if lost == 0 || again == 0 {
		t.Fatalf("test is vacuous: %d unacknowledged reports dropped, %d of those demands arrived again; pick another seed", lost, again)
	}
	if n := ring.Events().Count(trace.ByType(trace.EvDemandFailed, trace.EvStealArmed, trace.EvStealFired)); n != 0 {
		t.Errorf("%d demand-failed/steal events against clients that were alive throughout", n)
	}
	noViolations(t, p.cl)
}
