// Package lock implements the server's logical lock manager. Storage Tank
// locks are logical — they name file objects, not disk address ranges
// (contrast GFS dlocks, §5) — and are granted, demanded back, and stolen
// by the metadata server, which is the locking authority.
//
// The table is policy-free: when a requested lock conflicts with current
// holders it queues the request and asks its Demander to revoke the
// conflicting holds. What happens when a holder does not answer a demand
// (the lease timeout) is the server's and internal/core's business.
package lock

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/msg"
)

// Demander is the table's outgoing revocation channel. Demand asks holder
// to downgrade its lock on ino to mode `to`; the same (holder, ino) pair is
// never demanded twice concurrently unless the target mode tightens.
type Demander interface {
	Demand(holder msg.NodeID, ino msg.ObjectID, to msg.LockMode, id msg.DemandID)
}

// GrantFn is invoked when a queued acquire is finally granted.
type GrantFn func(mode msg.LockMode)

type waiter struct {
	client msg.NodeID
	mode   msg.LockMode
	grant  GrantFn
}

type demandState struct {
	id msg.DemandID
	to msg.LockMode
}

type objLock struct {
	holders  map[msg.NodeID]msg.LockMode
	waiters  []waiter
	demanded map[msg.NodeID]demandState
}

// newObjLock makes an object's lock state. The demanded map is made by
// the first demand: most locks are never demanded.
func newObjLock() *objLock {
	return &objLock{holders: make(map[msg.NodeID]msg.LockMode)}
}

// Table is the lock manager for one server.
type Table struct {
	objects  map[msg.ObjectID]*objLock
	demander Demander
	nextID   msg.DemandID
	// holds counts (client, object) holder entries across all objects,
	// maintained incrementally so the per-shard locks_held gauge is O(1)
	// to read on every request.
	holds int
}

// setHold adds or replaces client's hold on o, keeping the holds count.
func (t *Table) setHold(o *objLock, client msg.NodeID, mode msg.LockMode) {
	if _, ok := o.holders[client]; !ok {
		t.holds++
	}
	o.holders[client] = mode
}

// delHold removes client's hold on o, keeping the holds count.
func (t *Table) delHold(o *objLock, client msg.NodeID) {
	if _, ok := o.holders[client]; ok {
		t.holds--
	}
	delete(o.holders, client)
}

// NewTable creates an empty lock table that revokes through d.
func NewTable(d Demander) *Table {
	return &Table{objects: make(map[msg.ObjectID]*objLock), demander: d}
}

func (t *Table) obj(ino msg.ObjectID) *objLock {
	o := t.objects[ino]
	if o == nil {
		o = newObjLock()
		t.objects[ino] = o
	}
	return o
}

func (t *Table) gc(ino msg.ObjectID, o *objLock) {
	if len(o.holders) == 0 && len(o.waiters) == 0 && len(o.demanded) == 0 {
		delete(t.objects, ino)
	}
}

// compatible reports whether client may hold mode on o given the other
// holders (the client's own current hold is ignored: upgrades replace it).
func (o *objLock) compatible(client msg.NodeID, mode msg.LockMode) bool {
	for h, m := range o.holders {
		if h == client {
			continue
		}
		if !m.Compatible(mode) {
			return false
		}
	}
	return true
}

// Acquire requests a data lock. If the mode is immediately grantable —
// including when the client already holds a covering mode — grant runs
// before Acquire returns and the result is true. Otherwise the request is
// queued FIFO, demands are issued to conflicting holders, and grant runs
// later. Duplicate queued acquires from the same client for the same
// object are coalesced to the strongest mode.
func (t *Table) Acquire(client msg.NodeID, ino msg.ObjectID, mode msg.LockMode, grant GrantFn) bool {
	if mode == msg.LockNone {
		panic("lock: acquiring LockNone")
	}
	o := t.obj(ino)
	if cur, ok := o.holders[client]; ok && cur.Covers(mode) {
		grant(cur) // idempotent re-acquire (request retry)
		return true
	}
	// Grant immediately only if compatible AND no one is queued ahead
	// (prevents starvation of queued exclusives by a stream of shares).
	if len(o.waiters) == 0 && o.compatible(client, mode) {
		t.setHold(o, client, mode)
		grant(mode)
		return true
	}
	for i := range o.waiters {
		if o.waiters[i].client == client {
			if mode > o.waiters[i].mode {
				o.waiters[i].mode = mode
				o.waiters[i].grant = grant
				t.issueDemands(ino, o)
			}
			return false
		}
	}
	o.waiters = append(o.waiters, waiter{client: client, mode: mode, grant: grant})
	t.issueDemands(ino, o)
	return false
}

// TryAcquire grants mode only if that takes nobody's cooperation — the
// client already holds a covering mode, or no one is queued and every
// other holder is compatible — and reports whether the client holds it on
// return. It never queues and never demands: it is how a lock rides on
// the reply to a request that did not ask for one (a directory grant),
// and such a request must not wait behind a revocation.
func (t *Table) TryAcquire(client msg.NodeID, ino msg.ObjectID, mode msg.LockMode) bool {
	o := t.objects[ino]
	if o == nil {
		o = newObjLock()
		t.objects[ino] = o
		t.setHold(o, client, mode)
		return true
	}
	if cur, ok := o.holders[client]; ok && cur.Covers(mode) {
		return true
	}
	if len(o.waiters) > 0 || !o.compatible(client, mode) {
		return false
	}
	t.setHold(o, client, mode)
	return true
}

// issueDemands asks conflicting holders to downgrade far enough for the
// head waiter (and any compatible followers) to proceed.
func (t *Table) issueDemands(ino msg.ObjectID, o *objLock) {
	if len(o.waiters) == 0 {
		return
	}
	head := o.waiters[0]
	holders := make([]msg.NodeID, 0, len(o.holders))
	for h := range o.holders {
		holders = append(holders, h)
	}
	slices.Sort(holders)
	for _, holder := range holders {
		held := o.holders[holder]
		if holder == head.client {
			continue
		}
		var to msg.LockMode
		switch {
		case head.mode == msg.LockExclusive:
			to = msg.LockNone
		case held == msg.LockExclusive:
			to = msg.LockShared
		default:
			continue // already compatible
		}
		if d, ok := o.demanded[holder]; ok && d.to <= to {
			continue // equal or stronger demand already outstanding
		}
		t.nextID++
		id := t.nextID
		if o.demanded == nil {
			o.demanded = make(map[msg.NodeID]demandState)
		}
		o.demanded[holder] = demandState{id: id, to: to}
		t.demander.Demand(holder, ino, to, id)
	}
}

// Install restores a reasserted lock directly (server recovery, §6). It
// succeeds only if the mode is compatible with every other current
// holder; queued waiters are not consulted (during the grace period no
// new acquires are admitted).
func (t *Table) Install(client msg.NodeID, ino msg.ObjectID, mode msg.LockMode) bool {
	if mode == msg.LockNone {
		return true
	}
	o := t.obj(ino)
	if !o.compatible(client, mode) {
		t.gc(ino, o)
		return false
	}
	if cur, ok := o.holders[client]; !ok || mode > cur {
		t.setHold(o, client, mode)
	}
	return true
}

// Release downgrades client's hold on ino to `to` (LockNone releases). It
// is a no-op if the client holds nothing stronger.
func (t *Table) Release(client msg.NodeID, ino msg.ObjectID, to msg.LockMode) msg.Errno {
	o, ok := t.objects[ino]
	if !ok {
		return msg.ErrNotHolder
	}
	cur, ok := o.holders[client]
	if !ok {
		return msg.ErrNotHolder
	}
	if to >= cur {
		return msg.OK // not a downgrade; ignore
	}
	t.setMode(ino, o, client, to)
	return msg.OK
}

// Downgraded records completion of a demanded downgrade. Stale demand IDs
// (from demands already satisfied or escalated) are accepted idempotently
// as long as the resulting mode is no stronger than currently held.
func (t *Table) Downgraded(client msg.NodeID, ino msg.ObjectID, to msg.LockMode, id msg.DemandID) msg.Errno {
	o, ok := t.objects[ino]
	if !ok {
		return msg.OK
	}
	if d, ok := o.demanded[client]; ok && d.id == id {
		delete(o.demanded, client)
	}
	if cur, ok := o.holders[client]; ok && to < cur {
		t.setMode(ino, o, client, to)
	}
	return msg.OK
}

func (t *Table) setMode(ino msg.ObjectID, o *objLock, client msg.NodeID, to msg.LockMode) {
	if to == msg.LockNone {
		t.delHold(o, client)
	} else {
		t.setHold(o, client, to)
	}
	if d, ok := o.demanded[client]; ok && to <= d.to {
		delete(o.demanded, client)
	}
	t.promote(ino, o)
	t.gc(ino, o)
}

// promote grants queued waiters, in order, while the head is compatible.
func (t *Table) promote(ino msg.ObjectID, o *objLock) {
	for len(o.waiters) > 0 {
		w := o.waiters[0]
		if cur, ok := o.holders[w.client]; ok && cur.Covers(w.mode) {
			o.waiters = o.waiters[1:]
			w.grant(cur)
			continue
		}
		if !o.compatible(w.client, w.mode) {
			t.issueDemands(ino, o)
			return
		}
		o.waiters = o.waiters[1:]
		t.setHold(o, w.client, w.mode)
		w.grant(w.mode)
	}
}

// StealAll removes every hold, wait, and outstanding demand of client —
// the lock steal performed when the client's lease times out — and
// returns the objects whose locks were stolen. Queued grants for the
// stolen client are dropped without calling their GrantFn (the server has
// already stopped talking to it).
func (t *Table) StealAll(client msg.NodeID) []msg.ObjectID {
	inos := make([]msg.ObjectID, 0, len(t.objects))
	for ino := range t.objects {
		inos = append(inos, ino)
	}
	slices.Sort(inos)
	var stolen []msg.ObjectID
	for _, ino := range inos {
		o := t.objects[ino]
		changed := false
		if _, ok := o.holders[client]; ok {
			t.delHold(o, client)
			stolen = append(stolen, ino)
			changed = true
		}
		for i := range o.waiters {
			if o.waiters[i].client == client {
				o.waiters = append(o.waiters[:i], o.waiters[i+1:]...)
				changed = true
				break
			}
		}
		delete(o.demanded, client)
		if changed {
			t.promote(ino, o)
			t.gc(ino, o)
		}
	}
	return stolen
}

// DemandInfo describes one outstanding demand against a holder.
type DemandInfo struct {
	Ino msg.ObjectID
	To  msg.LockMode
	ID  msg.DemandID
}

// OutstandingDemands lists the demands issued to holder that have not yet
// been satisfied, for transports that need to re-send them, in
// deterministic order.
func (t *Table) OutstandingDemands(holder msg.NodeID) []DemandInfo {
	var out []DemandInfo
	for ino, o := range t.objects {
		if d, ok := o.demanded[holder]; ok {
			out = append(out, DemandInfo{Ino: ino, To: d.to, ID: d.id})
		}
	}
	slices.SortFunc(out, func(a, b DemandInfo) int { return cmp.Compare(a.Ino, b.Ino) })
	return out
}

// Held returns the mode client currently holds on ino.
func (t *Table) Held(client msg.NodeID, ino msg.ObjectID) msg.LockMode {
	if o, ok := t.objects[ino]; ok {
		return o.holders[client]
	}
	return msg.LockNone
}

// Contended reports whether anybody but client holds a lock on ino or is
// queued for one: whether client taking it exclusively would have to ask
// somebody.
func (t *Table) Contended(client msg.NodeID, ino msg.ObjectID) bool {
	o, ok := t.objects[ino]
	if !ok {
		return false
	}
	if len(o.waiters) > 0 || len(o.holders) > 1 {
		return true
	}
	_, own := o.holders[client]
	return len(o.holders) == 1 && !own
}

// HoldersOf returns the number of holders of ino.
func (t *Table) HoldersOf(ino msg.ObjectID) int {
	if o, ok := t.objects[ino]; ok {
		return len(o.holders)
	}
	return 0
}

// WaitersOf returns the number of queued acquires on ino.
func (t *Table) WaitersOf(ino msg.ObjectID) int {
	if o, ok := t.objects[ino]; ok {
		return len(o.waiters)
	}
	return 0
}

// LocksHeldBy counts objects on which client holds any lock.
func (t *Table) LocksHeldBy(client msg.NodeID) int {
	n := 0
	for _, o := range t.objects {
		if _, ok := o.holders[client]; ok {
			n++
		}
	}
	return n
}

// HeldCount returns the total number of (client, object) holder entries
// in the table — the value behind the server.<id>.locks_held gauge.
func (t *Table) HeldCount() int { return t.holds }

// Objects returns the number of objects with any lock state.
func (t *Table) Objects() int { return len(t.objects) }

func (t *Table) String() string {
	return fmt.Sprintf("lock.Table{objects: %d}", len(t.objects))
}
