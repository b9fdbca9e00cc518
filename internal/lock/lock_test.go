package lock

import (
	"testing"

	"repro/internal/msg"
)

// demandRec captures issued demands.
type demandRec struct {
	demands []demandCall
}

type demandCall struct {
	holder msg.NodeID
	ino    msg.ObjectID
	to     msg.LockMode
	id     msg.DemandID
}

func (d *demandRec) Demand(holder msg.NodeID, ino msg.ObjectID, to msg.LockMode, id msg.DemandID) {
	d.demands = append(d.demands, demandCall{holder, ino, to, id})
}

func granted(mode *msg.LockMode, fired *bool) GrantFn {
	return func(m msg.LockMode) {
		*mode = m
		*fired = true
	}
}

func TestImmediateGrantShared(t *testing.T) {
	d := &demandRec{}
	tb := NewTable(d)
	var m msg.LockMode
	var ok bool
	if !tb.Acquire(1, 10, msg.LockShared, granted(&m, &ok)) {
		t.Fatal("uncontended shared not immediate")
	}
	if !ok || m != msg.LockShared {
		t.Fatalf("grant fired=%v mode=%v", ok, m)
	}
	// Second shared holder also immediate.
	if !tb.Acquire(2, 10, msg.LockShared, granted(&m, &ok)) {
		t.Fatal("second shared not immediate")
	}
	if tb.HoldersOf(10) != 2 || len(d.demands) != 0 {
		t.Fatalf("holders=%d demands=%d", tb.HoldersOf(10), len(d.demands))
	}
}

func TestReacquireCoveringIsIdempotent(t *testing.T) {
	tb := NewTable(&demandRec{})
	var m msg.LockMode
	var ok bool
	tb.Acquire(1, 10, msg.LockExclusive, granted(&m, &ok))
	ok = false
	if !tb.Acquire(1, 10, msg.LockShared, granted(&m, &ok)) || !ok {
		t.Fatal("covering re-acquire not immediate")
	}
	if m != msg.LockExclusive {
		t.Fatalf("re-grant mode = %v, want existing exclusive", m)
	}
	if tb.Held(1, 10) != msg.LockExclusive {
		t.Fatal("hold downgraded by weaker re-acquire")
	}
}

func TestConflictQueuesAndDemands(t *testing.T) {
	d := &demandRec{}
	tb := NewTable(d)
	var m1, m2 msg.LockMode
	var ok1, ok2 bool
	tb.Acquire(1, 10, msg.LockExclusive, granted(&m1, &ok1))
	if tb.Acquire(2, 10, msg.LockShared, granted(&m2, &ok2)) {
		t.Fatal("conflicting acquire granted immediately")
	}
	if ok2 {
		t.Fatal("grant fired while queued")
	}
	if len(d.demands) != 1 {
		t.Fatalf("demands = %v", d.demands)
	}
	dm := d.demands[0]
	if dm.holder != 1 || dm.ino != 10 || dm.to != msg.LockShared {
		t.Fatalf("demand = %+v, want holder 1 -> shared", dm)
	}
	// Holder complies.
	tb.Downgraded(1, 10, msg.LockShared, dm.id)
	if !ok2 || m2 != msg.LockShared {
		t.Fatalf("waiter not granted after downgrade: ok=%v m=%v", ok2, m2)
	}
	if tb.Held(1, 10) != msg.LockShared || tb.Held(2, 10) != msg.LockShared {
		t.Fatal("post-downgrade holds wrong")
	}
}

func TestExclusiveWaiterDemandsFullRelease(t *testing.T) {
	d := &demandRec{}
	tb := NewTable(d)
	var m msg.LockMode
	var ok bool
	tb.Acquire(1, 10, msg.LockShared, granted(&m, &ok))
	tb.Acquire(2, 10, msg.LockShared, granted(&m, &ok))
	var mx msg.LockMode
	var okx bool
	tb.Acquire(3, 10, msg.LockExclusive, granted(&mx, &okx))
	if len(d.demands) != 2 {
		t.Fatalf("demands = %+v, want 2", d.demands)
	}
	for _, dm := range d.demands {
		if dm.to != msg.LockNone {
			t.Fatalf("demand target = %v, want none", dm.to)
		}
	}
	tb.Downgraded(1, 10, msg.LockNone, d.demands[0].id)
	if okx {
		t.Fatal("granted before all holders released")
	}
	tb.Downgraded(2, 10, msg.LockNone, d.demands[1].id)
	if !okx || mx != msg.LockExclusive {
		t.Fatal("exclusive not granted after all releases")
	}
}

func TestFIFONoStarvation(t *testing.T) {
	d := &demandRec{}
	tb := NewTable(d)
	var mA msg.LockMode
	var okA bool
	tb.Acquire(1, 10, msg.LockShared, granted(&mA, &okA))
	// Client 2 queues for exclusive.
	var mX msg.LockMode
	var okX bool
	tb.Acquire(2, 10, msg.LockExclusive, granted(&mX, &okX))
	// Client 3 asks for shared, which is compatible with holder 1 — but it
	// must NOT jump the queued exclusive.
	var mB msg.LockMode
	var okB bool
	if tb.Acquire(3, 10, msg.LockShared, granted(&mB, &okB)) {
		t.Fatal("shared jumped the exclusive queue")
	}
	tb.Release(1, 10, msg.LockNone)
	if !okX || mX != msg.LockExclusive {
		t.Fatal("queued exclusive not granted first")
	}
	if okB {
		t.Fatal("shared granted while exclusive held")
	}
	tb.Release(2, 10, msg.LockNone)
	if !okB || mB != msg.LockShared {
		t.Fatal("shared not granted after exclusive released")
	}
}

func TestUpgradeSharedToExclusive(t *testing.T) {
	d := &demandRec{}
	tb := NewTable(d)
	var m msg.LockMode
	var ok bool
	tb.Acquire(1, 10, msg.LockShared, granted(&m, &ok))
	tb.Acquire(2, 10, msg.LockShared, granted(&m, &ok))
	var up msg.LockMode
	var okUp bool
	if tb.Acquire(1, 10, msg.LockExclusive, granted(&up, &okUp)) {
		t.Fatal("upgrade with another shared holder granted immediately")
	}
	// Only client 2 should be demanded (client 1 is the upgrader).
	if len(d.demands) != 1 || d.demands[0].holder != 2 || d.demands[0].to != msg.LockNone {
		t.Fatalf("demands = %+v", d.demands)
	}
	tb.Downgraded(2, 10, msg.LockNone, d.demands[0].id)
	if !okUp || up != msg.LockExclusive {
		t.Fatal("upgrade not granted")
	}
}

func TestCoalesceDuplicateWaiters(t *testing.T) {
	d := &demandRec{}
	tb := NewTable(d)
	var m msg.LockMode
	var ok bool
	tb.Acquire(1, 10, msg.LockExclusive, granted(&m, &ok))
	var w1, w2 msg.LockMode
	var okW1, okW2 bool
	tb.Acquire(2, 10, msg.LockShared, granted(&w1, &okW1))
	tb.Acquire(2, 10, msg.LockExclusive, granted(&w2, &okW2)) // coalesces, escalates
	if tb.WaitersOf(10) != 1 {
		t.Fatalf("waiters = %d, want 1 (coalesced)", tb.WaitersOf(10))
	}
	tb.Release(1, 10, msg.LockNone)
	if okW1 {
		t.Fatal("superseded grant callback fired")
	}
	if !okW2 || w2 != msg.LockExclusive {
		t.Fatal("escalated waiter not granted exclusive")
	}
}

func TestDemandEscalation(t *testing.T) {
	d := &demandRec{}
	tb := NewTable(d)
	var m msg.LockMode
	var ok bool
	tb.Acquire(1, 10, msg.LockExclusive, granted(&m, &ok))
	tb.Acquire(2, 10, msg.LockShared, func(msg.LockMode) {})
	if len(d.demands) != 1 || d.demands[0].to != msg.LockShared {
		t.Fatalf("demands = %+v", d.demands)
	}
	// A third client wants exclusive; holder 1 must now be demanded to
	// LockNone even though a shared demand is outstanding.
	tb.Acquire(3, 10, msg.LockExclusive, func(msg.LockMode) {})
	// Head waiter is still client 2 (shared), so no escalation yet — the
	// escalation happens when 2 is at the head needing only shared. The
	// demand set must still target the head's needs.
	found := false
	for _, dm := range d.demands {
		if dm.holder == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("holder 1 never demanded")
	}
}

func TestReleaseErrors(t *testing.T) {
	tb := NewTable(&demandRec{})
	if errno := tb.Release(1, 10, msg.LockNone); errno != msg.ErrNotHolder {
		t.Fatalf("release of unheld = %v", errno)
	}
	var m msg.LockMode
	var ok bool
	tb.Acquire(1, 10, msg.LockShared, granted(&m, &ok))
	if errno := tb.Release(2, 10, msg.LockNone); errno != msg.ErrNotHolder {
		t.Fatalf("release by non-holder = %v", errno)
	}
	// Upgrading via Release is ignored.
	if errno := tb.Release(1, 10, msg.LockExclusive); errno != msg.OK {
		t.Fatalf("no-op release = %v", errno)
	}
	if tb.Held(1, 10) != msg.LockShared {
		t.Fatal("release upgraded the lock")
	}
}

func TestStealAll(t *testing.T) {
	d := &demandRec{}
	tb := NewTable(d)
	var m msg.LockMode
	var ok bool
	tb.Acquire(1, 10, msg.LockExclusive, granted(&m, &ok))
	tb.Acquire(1, 11, msg.LockShared, granted(&m, &ok))
	var w msg.LockMode
	var okW bool
	tb.Acquire(2, 10, msg.LockExclusive, granted(&w, &okW))
	stolen := tb.StealAll(1)
	if len(stolen) != 2 {
		t.Fatalf("stolen = %v, want 2 objects", stolen)
	}
	if !okW || w != msg.LockExclusive {
		t.Fatal("waiter not promoted after steal")
	}
	if tb.LocksHeldBy(1) != 0 {
		t.Fatal("stolen client still holds locks")
	}
}

func TestStealRemovesWaiters(t *testing.T) {
	tb := NewTable(&demandRec{})
	var m msg.LockMode
	var ok bool
	tb.Acquire(1, 10, msg.LockExclusive, granted(&m, &ok))
	fired := false
	tb.Acquire(2, 10, msg.LockExclusive, func(msg.LockMode) { fired = true })
	tb.StealAll(2) // steal the waiter's client
	tb.Release(1, 10, msg.LockNone)
	if fired {
		t.Fatal("grant fired for stolen waiter")
	}
	if tb.Objects() != 0 {
		t.Fatalf("objects = %d, want 0 after gc", tb.Objects())
	}
}

func TestDowngradedStaleDemandID(t *testing.T) {
	d := &demandRec{}
	tb := NewTable(d)
	var m msg.LockMode
	var ok bool
	tb.Acquire(1, 10, msg.LockExclusive, granted(&m, &ok))
	// Voluntary downgrade with a bogus demand id on an object with state.
	if errno := tb.Downgraded(1, 10, msg.LockShared, 999); errno != msg.OK {
		t.Fatalf("stale downgrade errno = %v", errno)
	}
	if tb.Held(1, 10) != msg.LockShared {
		t.Fatal("voluntary downgrade ignored")
	}
	// Downgraded on unknown object is accepted (idempotent).
	if errno := tb.Downgraded(1, 99, msg.LockNone, 1); errno != msg.OK {
		t.Fatalf("unknown-object downgrade errno = %v", errno)
	}
	// An upgrade via Downgraded is ignored.
	tb.Downgraded(1, 10, msg.LockExclusive, 0)
	if tb.Held(1, 10) != msg.LockShared {
		t.Fatal("Downgraded upgraded the lock")
	}
}

func TestNoDuplicateDemands(t *testing.T) {
	d := &demandRec{}
	tb := NewTable(d)
	var m msg.LockMode
	var ok bool
	tb.Acquire(1, 10, msg.LockExclusive, granted(&m, &ok))
	tb.Acquire(2, 10, msg.LockExclusive, func(msg.LockMode) {})
	tb.Acquire(3, 10, msg.LockShared, func(msg.LockMode) {})
	n := 0
	for _, dm := range d.demands {
		if dm.holder == 1 && dm.to == msg.LockNone {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("holder 1 demanded to none %d times, want once: %+v", n, d.demands)
	}
}

func TestAcquireNonePanics(t *testing.T) {
	tb := NewTable(&demandRec{})
	defer func() {
		if recover() == nil {
			t.Fatal("Acquire(LockNone) did not panic")
		}
	}()
	tb.Acquire(1, 10, msg.LockNone, func(msg.LockMode) {})
}

func TestGCCleansIdleObjects(t *testing.T) {
	tb := NewTable(&demandRec{})
	var m msg.LockMode
	var ok bool
	tb.Acquire(1, 10, msg.LockShared, granted(&m, &ok))
	tb.Release(1, 10, msg.LockNone)
	if tb.Objects() != 0 {
		t.Fatalf("objects = %d after full release", tb.Objects())
	}
	if tb.Held(1, 10) != msg.LockNone || tb.HoldersOf(10) != 0 || tb.WaitersOf(10) != 0 {
		t.Fatal("queries on gc'd object wrong")
	}
}

// TestTryAcquireNeverQueuesOrDemands: a try succeeds exactly when nobody
// has to be asked — and, with a revocation queued, not even then, or a
// stream of tries would starve it.
func TestTryAcquireNeverQueuesOrDemands(t *testing.T) {
	d := &demandRec{}
	tb := NewTable(d)
	if !tb.TryAcquire(1, 10, msg.LockShared) || !tb.TryAcquire(2, 10, msg.LockShared) {
		t.Fatal("compatible tries refused")
	}
	if tb.HoldersOf(10) != 2 || tb.HeldCount() != 2 {
		t.Fatalf("holders=%d held=%d", tb.HoldersOf(10), tb.HeldCount())
	}
	// An exclusive queues behind the two shares and demands them.
	var m msg.LockMode
	var ok bool
	if tb.Acquire(3, 10, msg.LockExclusive, granted(&m, &ok)) {
		t.Fatal("exclusive granted over two shares")
	}
	demands := len(d.demands)
	// A third share must not slip in ahead of it; a holder's own re-try is
	// still covered.
	if tb.TryAcquire(4, 10, msg.LockShared) {
		t.Fatal("try granted ahead of a queued exclusive")
	}
	if !tb.TryAcquire(1, 10, msg.LockShared) {
		t.Fatal("holder's own try refused")
	}
	if tb.WaitersOf(10) != 1 || len(d.demands) != demands || tb.HoldersOf(10) != 2 {
		t.Fatalf("a try queued or demanded: waiters=%d demands=%d holders=%d",
			tb.WaitersOf(10), len(d.demands), tb.HoldersOf(10))
	}
	tb.Downgraded(1, 10, msg.LockNone, d.demands[0].id)
	tb.Downgraded(2, 10, msg.LockNone, d.demands[1].id)
	if !ok || tb.Held(3, 10) != msg.LockExclusive {
		t.Fatal("exclusive not granted once the shares came back")
	}
	// Incompatible with a holder: refused, and the table keeps no trace.
	if tb.TryAcquire(4, 10, msg.LockShared) || tb.Held(4, 10) != msg.LockNone {
		t.Fatal("try granted against an exclusive holder")
	}
	tb.Release(3, 10, msg.LockNone)
	if tb.Objects() != 0 {
		t.Fatalf("objects=%d after everything was released", tb.Objects())
	}
}
