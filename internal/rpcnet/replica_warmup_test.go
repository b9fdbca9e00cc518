package rpcnet

import (
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/replica"
	"repro/internal/server"
)

// TestLiveReplicaRestartWarmsUp restarts a member of a live replica
// group and checks that it casts no vote — no promise, no accept — for
// one acquisition timeout, LeaseTerm·(1+ε), after it comes back. Its
// acceptor is diskless: whatever it promised before the restart is
// forgotten, and a vote inside that window could let a second holder
// win a quorum while the first one's lease is still live (DESIGN §15.2).
// The other two members are played by the test: bare transports that
// probe the member with ever higher prepares and proposes and note when
// its answers arrive.
func TestLiveReplicaRestartWarmsUp(t *testing.T) {
	const term = 300 * time.Millisecond
	cfg := liveCore()
	window := cfg.Bound.Stretch(term)
	group := []msg.NodeID{1, 101, 201}
	topo := Topology{
		Server:        1,
		Servers:       map[msg.NodeID]string{1: freeAddr(t)},
		ReplicaGroups: map[msg.NodeID][]msg.NodeID{1: group},
	}
	topo.ServerAddr = topo.Servers[1]
	// The arrival time of each vote the member casts. Probes go out every
	// 20 ms for a few seconds, so 1 024 slots hold every vote; a full
	// channel drops rather than block the transport.
	votes := make(chan time.Time, 1<<10)
	var prober *Transport
	for _, id := range group[1:] {
		tr := New(id, map[msg.NodeID]string{1: topo.ServerAddr}, func(env msg.Envelope) {
			switch env.Payload.(type) {
			case *msg.ReplicaPromise, *msg.ReplicaAccept:
				select {
				case votes <- time.Now():
				default:
				}
			}
		})
		go tr.Run()
		t.Cleanup(tr.Close)
		addr, err := tr.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		topo.Servers[id] = addr.String()
		prober = tr
	}
	boot := func() *ServerNode {
		t.Helper()
		sn, err := StartServerNode(NodeSpec{ID: 1, Topo: topo}, server.Config{
			Core: cfg, Replica: &replica.Config{LeaseTerm: term}})
		if err != nil {
			t.Fatalf("member 1: %v", err)
		}
		return sn
	}
	nextVote := func(within time.Duration) time.Time {
		t.Helper()
		select {
		case at := <-votes:
			return at
		case <-time.After(within):
			t.Fatalf("member 1 cast no vote within %v", within)
			return time.Time{}
		}
	}

	first, firstClosed := boot(), false
	t.Cleanup(func() {
		if !firstClosed {
			first.Close()
		}
	})
	stop := make(chan struct{})
	probing := make(chan struct{})
	go func() {
		defer close(probing)
		from := group[2]
		for ballot := uint64(3); ; ballot += uint64(len(group)) {
			prober.Send(1, &msg.ReplicaPrepare{From: from, Ballot: ballot})
			prober.Send(1, &msg.ReplicaPropose{From: from, Ballot: ballot, Holder: from})
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
		}
	}()
	t.Cleanup(func() { close(stop); <-probing })
	// The probes reach the member: it votes once its first boot's warm-up
	// is over.
	nextVote(window + 5*time.Second)

	first.Close()
	firstClosed = true
	// Let votes already on the wire land before the restart is timed.
	time.Sleep(100 * time.Millisecond)
	for len(votes) > 0 {
		<-votes
	}
	restarted := time.Now()
	second := boot()
	t.Cleanup(second.Close)
	at := nextVote(window + 5*time.Second)
	if gap := at.Sub(restarted); gap < window {
		t.Fatalf("restarted member voted %v after it came back, inside its warm-up of LeaseTerm·(1+ε) = %v",
			gap, window)
	}
}
