package checker

import (
	"testing"

	"repro/internal/msg"
	"repro/internal/sim"
)

func newChecker() (*sim.Scheduler, *Checker) {
	s := sim.NewScheduler(1)
	return s, New(s)
}

func TestCleanHistoryNoViolations(t *testing.T) {
	_, c := newChecker()
	// Single writer, flush, then another client reads the committed data.
	c.LockActive(1, 10, msg.LockExclusive)
	v := c.NextVer(1, 10, 0)
	c.Read(1, 10, 0, v) // own read sees own write
	c.Committed(1, 10, 0, v)
	c.LockInactive(1, 10)
	c.LockActive(2, 10, msg.LockShared)
	c.Read(2, 10, 0, v)
	c.LockInactive(2, 10)
	c.FinalCheck()
	if n := len(c.Violations()); n != 0 {
		t.Fatalf("violations = %v", c.Violations())
	}
}

func TestStaleReadDetected(t *testing.T) {
	_, c := newChecker()
	v1 := c.NextVer(1, 10, 0)
	c.Committed(1, 10, 0, v1)
	c.NextVer(1, 10, 0) // v2 dirty in client 1's cache, never flushed
	// Client 2 reads from disk and sees v1: stale.
	c.Read(2, 10, 0, v1)
	if c.Count(StaleRead) != 1 {
		t.Fatalf("stale reads = %d, want 1: %v", c.Count(StaleRead), c.Violations())
	}
	// The writer itself is excused: its newer version lives in its own
	// cache, so the oracle attributes no staleness to it.
	c.Read(1, 10, 0, v1)
	if c.Count(StaleRead) != 1 {
		t.Fatal("writer's own-read must not be flagged")
	}
}

func TestOwnNewerWritesNotStale(t *testing.T) {
	_, c := newChecker()
	v1 := c.NextVer(1, 10, 0)
	c.Committed(1, 10, 0, v1)
	v2 := c.NextVer(1, 10, 0) // dirty
	c.Read(1, 10, 0, v2)      // reads own cache: newest
	if c.Count(StaleRead) != 0 {
		t.Fatalf("false positive: %v", c.Violations())
	}
	// Reader 2 sees v2 after flush: fine.
	c.Committed(1, 10, 0, v2)
	c.Read(2, 10, 0, v2)
	if c.Count(StaleRead) != 0 {
		t.Fatalf("false positive after flush: %v", c.Violations())
	}
}

func TestReadOfNeverWrittenBlock(t *testing.T) {
	_, c := newChecker()
	c.Read(2, 10, 0, 0)
	if len(c.Violations()) != 0 {
		t.Fatal("reading a never-written block is not a violation")
	}
}

func TestConcurrentConflictDetected(t *testing.T) {
	_, c := newChecker()
	// Naive steal: client 1 believes it holds exclusive; server granted
	// client 2 exclusive too. Both write.
	c.LockActive(1, 10, msg.LockExclusive)
	c.LockActive(2, 10, msg.LockExclusive)
	c.NextVer(1, 10, 0)
	if c.Count(ConcurrentConflict) != 1 {
		t.Fatalf("conflicts = %d, want 1", c.Count(ConcurrentConflict))
	}
	// Deduped: more ops between the same pair count once.
	c.NextVer(2, 10, 1)
	c.NextVer(1, 10, 2)
	if c.Count(ConcurrentConflict) != 1 {
		t.Fatalf("conflicts = %d, want deduped 1", c.Count(ConcurrentConflict))
	}
}

func TestSharedReadersNoConflict(t *testing.T) {
	_, c := newChecker()
	c.LockActive(1, 10, msg.LockShared)
	c.LockActive(2, 10, msg.LockShared)
	c.Read(1, 10, 0, 0)
	c.Read(2, 10, 0, 0)
	if c.Count(ConcurrentConflict) != 0 {
		t.Fatalf("false conflict: %v", c.Violations())
	}
}

func TestReadWithoutLockAgainstExclusiveHolder(t *testing.T) {
	_, c := newChecker()
	// Fenced client 1 lost its lock (stolen) but still serves reads from
	// cache: its window is gone, but client 2 now holds exclusive. The
	// lockless read conflicts with the exclusive window.
	c.LockActive(2, 10, msg.LockExclusive)
	c.Read(1, 10, 0, 0)
	if c.Count(ConcurrentConflict) != 1 {
		t.Fatalf("conflicts = %d, want 1", c.Count(ConcurrentConflict))
	}
}

func TestLockInactiveEndsWindow(t *testing.T) {
	_, c := newChecker()
	c.LockActive(1, 10, msg.LockExclusive)
	c.NextVer(1, 10, 0)
	c.LockInactive(1, 10)
	c.LockActive(2, 10, msg.LockExclusive)
	c.NextVer(2, 10, 0)
	if c.Count(ConcurrentConflict) != 0 {
		t.Fatalf("false conflict after release: %v", c.Violations())
	}
	// Downgrade to none via LockActive(None) also ends the window.
	c.LockActive(2, 10, msg.LockNone)
	c.LockActive(3, 10, msg.LockExclusive)
	c.NextVer(3, 10, 0)
	if c.Count(ConcurrentConflict) != 0 {
		t.Fatalf("false conflict after downgrade: %v", c.Violations())
	}
}

func TestLostUpdateDetected(t *testing.T) {
	_, c := newChecker()
	v1 := c.NextVer(1, 10, 0)
	c.Committed(1, 10, 0, v1)
	c.NextVer(1, 10, 0) // v2 stranded: fenced before flush
	got := c.FinalCheck()
	if len(got) != 1 || got[0].Kind != LostUpdate || got[0].Actor != 1 {
		t.Fatalf("final = %v", got)
	}
	if c.Count(LostUpdate) != 1 {
		t.Fatal("violation not recorded")
	}
}

func TestLostUpdateExcusedForCrashedClient(t *testing.T) {
	_, c := newChecker()
	c.NextVer(1, 10, 0) // dirty
	c.ClientCrashed(1)  // the machine failed: volatile state gone, no guarantee
	if got := c.FinalCheck(); len(got) != 0 {
		t.Fatalf("crashed client's dirty data flagged: %v", got)
	}
}

func TestLostUpdateSupersededBySameWriter(t *testing.T) {
	_, c := newChecker()
	c.NextVer(1, 10, 0)       // v1 dirty, overwritten in cache
	v2 := c.NextVer(1, 10, 0) // v2 dirty
	c.Committed(1, 10, 0, v2) // only the final content is flushed
	if got := c.FinalCheck(); len(got) != 0 {
		t.Fatalf("superseded write flagged: %v", got)
	}
}

func TestCrashEndsWindows(t *testing.T) {
	_, c := newChecker()
	c.LockActive(1, 10, msg.LockExclusive)
	c.ClientCrashed(1)
	c.LockActive(2, 10, msg.LockExclusive)
	c.NextVer(2, 10, 0)
	if c.Count(ConcurrentConflict) != 0 {
		t.Fatalf("crashed client's window still active: %v", c.Violations())
	}
}

func TestNopOracle(t *testing.T) {
	var o Oracle = Nop{}
	if o.NextVer(1, 2, 3) != 0 {
		t.Fatal("Nop.NextVer must return 0")
	}
	o.Committed(1, 2, 3, 4)
	o.Read(1, 2, 3, 4)
	o.LockActive(1, 2, msg.LockShared)
	o.LockInactive(1, 2)
	o.ClientCrashed(1)
}

func TestKindAndViolationStrings(t *testing.T) {
	for k := StaleRead; k <= ConcurrentConflict; k++ {
		if k.String() == "" {
			t.Fatal("empty kind string")
		}
	}
	if Kind(0).String() == "" {
		t.Fatal("unknown kind must format")
	}
	v := Violation{Kind: StaleRead, Ino: 1, Block: 2, Actor: 3, Other: 4, Detail: "x"}
	if v.String() == "" {
		t.Fatal("violation must format")
	}
}

// The namespace half: a served name, absence or attribute is checked
// against what the server has acknowledged, and a client's own changes
// are excused while one of them is in flight — no longer.

func namespaceKinds(c *Checker) [3]int {
	return [3]int{c.Count(StaleName), c.Count(StaleNegative), c.Count(StaleAttr)}
}

func TestStaleNameAfterAcknowledgedUnlinkOrRename(t *testing.T) {
	c := New(sim.NewScheduler(1))
	c.NameChanged(1, 10, "f", 20) // client 1 created f
	c.NameServed(2, 10, "f", 20)  // client 2 serves it: right
	c.OwnChanges(1, 1)
	c.NameChanged(1, 10, "f", 0) // client 1 unlinks it
	c.NameServed(1, 10, "f", 20) // the mutator's own cache may lag its own request
	if got := namespaceKinds(c); got != [3]int{} {
		t.Fatalf("violations before any stale serve: %v", got)
	}
	c.OwnChanges(1, 0) // the reply has been applied: f is gone for client 1 too
	c.NameServed(1, 10, "f", 20)
	if got := namespaceKinds(c); got != [3]int{1, 0, 0} {
		t.Fatalf("a name served after its own acknowledged unlink was applied: %v", got)
	}
	c = New(sim.NewScheduler(1))
	c.NameChanged(1, 10, "f", 0)
	c.NameServed(2, 10, "f", 20)
	c.NameChanged(1, 10, "g", 21)
	c.NameChanged(1, 10, "g", 22) // renamed over: another object under the name
	c.NameServed(2, 10, "g", 21)
	c.ListServed(2, 10, []msg.DirEntry{{Name: "f", Ino: 20}, {Name: "g", Ino: 22}})
	if got := namespaceKinds(c); got != [3]int{3, 0, 0} {
		t.Fatalf("stale-name/negative/attr = %v, want 3 stale names (lookup, lookup, listing)", got)
	}
	if v := c.Violations()[0]; v.Actor != 2 || v.Other != 1 || v.Ino != 10 {
		t.Fatalf("violation attribution: %+v", v)
	}
}

func TestStaleNegativeAfterAcknowledgedCreate(t *testing.T) {
	c := New(sim.NewScheduler(1))
	c.NameServed(2, 10, "f", 0) // nobody has said anything about f
	c.OwnChanges(1, 1)
	c.NameChanged(1, 10, "f", 20)
	c.NameServed(1, 10, "f", 0) // own change, its reply still on the way
	c.OwnChanges(1, 0)
	c.NameServed(2, 10, "f", 0)                               // a negative entry
	c.ListServed(2, 10, []msg.DirEntry{{Name: "e", Ino: 19}}) // a complete listing lacking it
	c.ListServed(2, 10, []msg.DirEntry{{Name: "f", Ino: 20}}) // right (e was never reported)
	if got := namespaceKinds(c); got != [3]int{0, 2, 0} {
		t.Fatalf("stale-name/negative/attr = %v, want 2 stale negatives", got)
	}
}

func TestStaleAttrAfterAcknowledgedChange(t *testing.T) {
	c := New(sim.NewScheduler(1))
	c.AttrChanged(1, msg.Attr{Ino: 20, Size: 0, Version: 1})
	c.AttrServed(2, msg.Attr{Ino: 20, Size: 0, Version: 1})
	c.OwnChanges(1, 1)
	c.AttrChanged(1, msg.Attr{Ino: 20, Size: 4096, Version: 2})
	c.AttrServed(1, msg.Attr{Ino: 20, Size: 0, Version: 1}) // own change, its reply still on the way
	c.OwnChanges(1, 0)
	c.AttrServed(2, msg.Attr{Ino: 20, Size: 8192, Version: 2}) // a writer's own unsettled size is newer, not older
	c.AttrServed(3, msg.Attr{Ino: 99, Version: 0})             // never reported
	if got := namespaceKinds(c); got != [3]int{} {
		t.Fatalf("violations before any stale serve: %v", got)
	}
	c.AttrServed(2, msg.Attr{Ino: 20, Size: 0, Version: 1})
	c.OwnChanges(2, 1)
	c.AttrChanged(2, msg.Attr{Ino: 20, Size: 4096, Version: 3}) // client 2 changes it too
	c.AttrServed(2, msg.Attr{Ino: 20, Size: 0, Version: 1})     // and still misses client 1's change
	c.OwnChanges(2, 0)
	c.AttrServed(2, msg.Attr{Ino: 20, Size: 4096, Version: 2}) // now its own as well
	if got := namespaceKinds(c); got != [3]int{0, 0, 3} {
		t.Fatalf("stale-name/negative/attr = %v, want 3 stale attrs", got)
	}
	var o Oracle = Nop{} // the no-op oracle takes the same calls
	o.NameServed(1, 1, "x", 0)
	o.ListServed(1, 1, nil)
	o.AttrServed(1, msg.Attr{})
	o.NameChanged(1, 1, "x", 2)
	o.AttrChanged(1, msg.Attr{})
	o.OwnChanges(1, 1)
}
