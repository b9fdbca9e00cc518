package client

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/msg"
	"repro/internal/sim"
)

// object is everything the client keeps about one object (DESIGN.md §22):
// one record in Client.objs, made when something needs it and deleted as
// soon as it holds nothing. Episode state — the fields up to base — is
// what the registration vouches for, and its end clears it (endEpisode).
// In-flight state — the rest — is what messages on the wire will come back
// to; it is never reset, but drains through the callbacks of the calls it
// waits on, which a cancellation fires like any reply.
type object struct {
	// mode is the data or directory lock the client believes it holds.
	mode msg.LockMode
	// push is what the object owes the server about its size (append.go).
	push sizePush
	// ra is the sequential detector and read-ahead window (prefetch.go).
	ra readAhead
	// base is a baseline's time for the object (baseline.go): its V lease's
	// expiry, or its NFS attribute fetch; 0 under the paper's protocol.
	base sim.Time

	// io counts data operations in flight under the lock; idle runs once
	// there are none. A downgrade waits for them, so an in-flight read
	// can never complete into a revoked cache.
	io   int
	idle []func()
	// downgrades counts LockDowngraded/LockRelease/trim exchanges not yet
	// acknowledged; deferred are the lock uses waiting for them to end.
	// Over a datagram network an acquire could otherwise overtake the
	// downgrade and be answered from pre-downgrade state.
	downgrades int
	deferred   []func()
	// complying: a demand's compliance holds the object; next is the
	// demand deferred behind it, coalesced to the strongest target, so a
	// weaker compliance can never finish after, and undo, a stronger one.
	complying bool
	next      *msg.Demand
	// demanded is Client.demands as the last demand for the object
	// arrived, and acquiring counts the LockAcquires in flight, each of
	// which holds the record so that the stamp it compares with survives
	// (ensureLock).
	demanded  uint64
	acquiring int
	// onWire holds the blocks read-ahead batches are fetching, and the
	// block each was issued for; parked the demand reads waiting on them.
	onWire map[uint64]msg.BlockRef
	parked map[uint64][]DataCallback
}

// busy reports whether the record has anything in flight.
func (o *object) busy() bool {
	return o.io > 0 || len(o.idle) > 0 || o.downgrades > 0 || len(o.deferred) > 0 ||
		o.complying || o.acquiring > 0 || len(o.onWire) > 0 || len(o.parked) > 0
}

// empty reports whether the record holds nothing of either kind.
func (o *object) empty() bool {
	return o.mode == msg.LockNone && !o.push.pending() && o.ra == (readAhead{}) &&
		o.base == 0 && !o.busy()
}

// obj returns ino's record, making it if there is none.
func (c *Client) obj(ino msg.ObjectID) *object {
	o := c.objs[ino]
	if o == nil {
		o = &object{}
		c.objs[ino] = o
	}
	return o
}

// tidy deletes ino's record o once it holds nothing. Whatever may leave a
// record empty calls it.
func (c *Client) tidy(ino msg.ObjectID, o *object) {
	if o.empty() && c.objs[ino] == o {
		delete(c.objs, ino)
	}
}

// unlock forgets the lock on ino.
func (c *Client) unlock(ino msg.ObjectID) {
	if o := c.objs[ino]; o != nil {
		o.mode = msg.LockNone
		c.lease.locked(o)
		c.tidy(ino, o)
	}
}

// locked returns the objects the client believes it holds a lock on, in
// order: the simulator's runs must repeat.
func (c *Client) locked() []msg.ObjectID {
	inos := make([]msg.ObjectID, 0, len(c.objs))
	for ino, o := range c.objs {
		if o.mode != msg.LockNone {
			inos = append(inos, ino)
		}
	}
	sort.Slice(inos, func(i, j int) bool { return inos[i] < inos[j] })
	return inos
}

// endEpisode is what the end of a registration takes: every lock the
// client believed it held (the oracle hears of each), everything cached
// under them, its handles, and what it owed a server that no longer
// honours this cache. The calls in flight are cancelled, and their
// callbacks, run here, drain what was in flight.
func (c *Client) endEpisode() {
	for ino, o := range c.objs {
		if o.mode != msg.LockNone {
			c.oracle.LockInactive(c.id, ino)
			o.mode = msg.LockNone
		}
	}
	// What a lock covered goes with the lock, names like pages.
	c.names.purge()
	if lost := c.cache.InvalidateAll(); lost > 0 {
		c.lostDirty.Add(uint64(lost))
	}
	c.handles = make(map[msg.Handle]handleInfo)
	c.registered = false
	// The registration is over before anything below runs: a cancellation
	// callback may still send something — a demand's compliance, parked
	// behind the operation just cancelled, reports that there is nothing
	// left to downgrade — and under the old epoch a server that never
	// noticed the isolation would ACK it, renewing the lease of a client
	// that holds no registration to lease.
	c.chn.SetEpoch(0)
	c.cancelCalls()
	for ino, o := range c.objs {
		o.push, o.ra, o.base = sizePush{}, readAhead{}, 0
		c.tidy(ino, o)
	}
}

// AtRest reports, by object, what the client still has in flight: data
// operations or what waits for them, downgrades or the acquires behind
// them, a demand's compliance, lock acquires, read-ahead on the wire or
// reads parked on it, a size owed. Once the installation has quiesced, a
// client that has not crashed must have none of it.
func (c *Client) AtRest() error {
	var bad []string
	for ino, o := range c.objs {
		if o.busy() || o.push.pending() {
			bad = append(bad, fmt.Sprintf("%v: %d operations (%d waiting), %d downgrades (%d deferred), "+
				"complying %v, %d acquires, %d read-ahead blocks (reads parked on %d), size owed %v",
				ino, o.io, len(o.idle), o.downgrades, len(o.deferred), o.complying, o.acquiring,
				len(o.onWire), len(o.parked), o.push.pending()))
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("client %v is not at rest: %s", c.id, strings.Join(bad, "; "))
}
