package simnet

import (
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/sim"
)

type ping struct{}

func (ping) Kind() msg.Kind { return msg.KindControlReq }

func newNet(t *testing.T, cfg Config) (*sim.Scheduler, *Network) {
	t.Helper()
	s := sim.NewScheduler(7)
	return s, New(s, cfg)
}

func TestDeliveryWithinDelayBounds(t *testing.T) {
	s, n := newNet(t, Config{Name: "t", DelayMin: time.Millisecond, DelayMax: 2 * time.Millisecond})
	var at sim.Time
	n.Attach(2, func(env msg.Envelope) { at = s.Now() })
	n.Attach(1, func(msg.Envelope) {})
	n.Send(1, 2, ping{})
	s.Run()
	if at < sim.Time(time.Millisecond) || at > sim.Time(2*time.Millisecond) {
		t.Fatalf("delivered at %v, want within [1ms,2ms]", at)
	}
	sent, delivered, dropped := n.Counts()
	if sent != 1 || delivered != 1 || dropped != 0 {
		t.Fatalf("counts = %d/%d/%d", sent, delivered, dropped)
	}
}

func TestFixedDelay(t *testing.T) {
	s, n := newNet(t, Config{DelayMin: time.Millisecond, DelayMax: time.Millisecond})
	var at sim.Time
	n.Attach(2, func(msg.Envelope) { at = s.Now() })
	n.Send(1, 2, ping{})
	s.Run()
	if at != sim.Time(time.Millisecond) {
		t.Fatalf("delivered at %v, want exactly 1ms", at)
	}
}

func TestLoss(t *testing.T) {
	s, n := newNet(t, Config{DelayMin: 1, DelayMax: 1, LossProb: 0.5})
	got := 0
	n.Attach(2, func(msg.Envelope) { got++ })
	const total = 2000
	for i := 0; i < total; i++ {
		n.Send(1, 2, ping{})
	}
	s.Run()
	if got < total/3 || got > 2*total/3 {
		t.Fatalf("got %d of %d with 50%% loss", got, total)
	}
	_, _, dropped := n.Counts()
	if int(dropped)+got != total {
		t.Fatalf("dropped %d + delivered %d != sent %d", dropped, got, total)
	}
}

func TestAsymmetricBlock(t *testing.T) {
	s, n := newNet(t, Config{DelayMin: 1, DelayMax: 1})
	var got1, got2 int
	n.Attach(1, func(msg.Envelope) { got1++ })
	n.Attach(2, func(msg.Envelope) { got2++ })
	n.BlockDir(1, 2)
	n.Send(1, 2, ping{}) // blocked
	n.Send(2, 1, ping{}) // open
	s.Run()
	if got2 != 0 {
		t.Fatal("blocked direction delivered")
	}
	if got1 != 1 {
		t.Fatal("open direction dropped")
	}
	if !n.Blocked(1, 2) || n.Blocked(2, 1) {
		t.Fatal("Blocked() state wrong")
	}
	n.UnblockDir(1, 2)
	n.Send(1, 2, ping{})
	s.Run()
	if got2 != 1 {
		t.Fatal("unblocked direction still dropping")
	}
}

func TestPartitionAndHeal(t *testing.T) {
	s, n := newNet(t, Config{DelayMin: 1, DelayMax: 1})
	counts := map[msg.NodeID]int{}
	for id := msg.NodeID(1); id <= 4; id++ {
		id := id
		n.Attach(id, func(msg.Envelope) { counts[id]++ })
	}
	n.Partition(1, 2) // {1,2} vs {3,4}
	pairs := [][2]msg.NodeID{{1, 2}, {2, 1}, {1, 3}, {3, 1}, {3, 4}, {2, 4}}
	for _, p := range pairs {
		n.Send(p[0], p[1], ping{})
	}
	s.Run()
	if counts[2] != 1 || counts[1] != 1 || counts[4] != 1 {
		t.Fatalf("intra-side traffic lost: %v", counts)
	}
	if counts[3] != 0 {
		t.Fatalf("cross-partition traffic delivered: %v", counts)
	}
	n.Heal()
	n.Send(1, 3, ping{})
	s.Run()
	if counts[3] != 1 {
		t.Fatal("heal did not restore link")
	}
}

func TestIsolate(t *testing.T) {
	s, n := newNet(t, Config{DelayMin: 1, DelayMax: 1})
	counts := map[msg.NodeID]int{}
	for id := msg.NodeID(1); id <= 3; id++ {
		id := id
		n.Attach(id, func(msg.Envelope) { counts[id]++ })
	}
	n.Isolate(1)
	n.Send(1, 2, ping{})
	n.Send(2, 1, ping{})
	n.Send(2, 3, ping{})
	s.Run()
	if counts[1] != 0 || counts[2] != 0 {
		t.Fatalf("isolated node exchanged traffic: %v", counts)
	}
	if counts[3] != 1 {
		t.Fatal("unrelated link affected by Isolate")
	}
}

func TestViewAsymmetry(t *testing.T) {
	// Reproduce §2's observation: control-net partition between C1 (id 1)
	// and C2 (id 2); the disk (id 9) is on a separate SAN that did not
	// partition, so views across the two networks differ.
	s := sim.NewScheduler(1)
	control := New(s, Config{Name: "control", DelayMin: 1, DelayMax: 1})
	san := New(s, Config{Name: "san", DelayMin: 1, DelayMax: 1})
	for _, id := range []msg.NodeID{1, 2, 3} { // clients + server on control
		control.Attach(id, func(msg.Envelope) {})
	}
	for _, id := range []msg.NodeID{1, 2, 9} { // clients + disk on SAN
		san.Attach(id, func(msg.Envelope) {})
	}
	control.Isolate(1)
	if len(control.View(1)) != 0 {
		t.Fatal("C1 should see nobody on control net")
	}
	if got := san.View(1); len(got) != 2 {
		t.Fatalf("C1 should still see 2 nodes on SAN, got %v", got)
	}
	// D ∈ V(C1) and C1 ∈ V(D), yet V(C1) ≠ V(D) across networks: C2 is
	// reachable from D but not from C1 on the control net. The joint view
	// is asymmetric even though each single-network partition is symmetric.
	if !san.Reachable(9, 2) || control.Reachable(1, 2) {
		t.Fatal("asymmetric joint partition not established")
	}
}

func TestCrashDropsInFlight(t *testing.T) {
	s, n := newNet(t, Config{DelayMin: time.Millisecond, DelayMax: time.Millisecond})
	got := 0
	n.Attach(2, func(msg.Envelope) { got++ })
	n.Send(1, 2, ping{})
	s.After(500*time.Microsecond, func() { n.Crash(2) })
	s.Run()
	if got != 0 {
		t.Fatal("message delivered to node that crashed while it was in flight")
	}
	if !n.Crashed(2) {
		t.Fatal("Crashed() false")
	}
	n.Restart(2)
	n.Send(1, 2, ping{})
	s.Run()
	if got != 1 {
		t.Fatal("restarted node did not receive")
	}
}

func TestSendToUnknownNodeDrops(t *testing.T) {
	s, n := newNet(t, Config{DelayMin: 1, DelayMax: 1})
	var events []Event
	n.Observer = func(e Event) { events = append(events, e) }
	n.Send(1, 99, ping{})
	s.Run()
	if len(events) != 1 || events[0].Delivered || events[0].Reason != DropNoSuchNode {
		t.Fatalf("events = %+v", events)
	}
}

func TestObserverSeesDeliveries(t *testing.T) {
	s, n := newNet(t, Config{DelayMin: 1, DelayMax: 1})
	n.Attach(2, func(msg.Envelope) {})
	var ev []Event
	n.Observer = func(e Event) { ev = append(ev, e) }
	n.Send(1, 2, ping{})
	s.Run()
	if len(ev) != 1 || !ev[0].Delivered || ev[0].Reason != Delivered {
		t.Fatalf("observer events = %+v", ev)
	}
	if ev[0].Env.From != 1 || ev[0].Env.To != 2 {
		t.Fatalf("envelope = %+v", ev[0].Env)
	}
}

func TestDetach(t *testing.T) {
	s, n := newNet(t, Config{DelayMin: 1, DelayMax: 1})
	got := 0
	n.Attach(2, func(msg.Envelope) { got++ })
	n.Detach(2)
	n.Send(1, 2, ping{})
	s.Run()
	if got != 0 {
		t.Fatal("detached node received")
	}
}

func TestDropReasonStrings(t *testing.T) {
	for r := Delivered; r <= DropNoSuchNode; r++ {
		if r.String() == "" {
			t.Fatalf("empty string for reason %d", r)
		}
	}
	if DropReason(99).String() == "" {
		t.Fatal("unknown reason must format")
	}
}
