// Package checker is the consistency oracle for the simulated
// installation. It watches, from outside the protocol, every cache write,
// disk commit, read, and lock-window transition, and detects the three
// failure modes the paper argues about (§2, §2.1) — and their three
// namespace twins, for names and attributes served from a client's name
// cache (names.go):
//
//   - ConcurrentConflict: a client operates on an object while another
//     client's conflicting lock window is still active — the "multiple
//     writers without synchronization" caused by naive lock stealing.
//   - StaleRead: a read returns data older than the newest acknowledged
//     write by another client — what fenced clients serve from their
//     caches, and what readers get when dirty data is stranded.
//   - LostUpdate: an acknowledged write whose data never reaches stable
//     storage although the writer was isolated, not failed — stranded
//     dirty data under fencing-only recovery.
//
// The oracle uses global simulation time and version stamps that ride
// along with block data; protocol code never reads either.
package checker

import (
	"fmt"
	"sort"

	"repro/internal/msg"
	"repro/internal/sim"
)

// Kind classifies a violation.
type Kind uint8

const (
	StaleRead Kind = iota + 1
	LostUpdate
	ConcurrentConflict
	// The namespace violations (names.go).
	StaleName
	StaleNegative
	StaleAttr
)

func (k Kind) String() string {
	switch k {
	case StaleRead:
		return "stale-read"
	case LostUpdate:
		return "lost-update"
	case ConcurrentConflict:
		return "concurrent-conflict"
	case StaleName:
		return "stale-name"
	case StaleNegative:
		return "stale-negative"
	case StaleAttr:
		return "stale-attr"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Violation is one detected consistency failure.
type Violation struct {
	Kind   Kind
	At     sim.Time
	Ino    msg.ObjectID
	Block  uint64
	Actor  msg.NodeID // the client whose operation exposed the violation
	Other  msg.NodeID // the conflicting/overwritten party, if any
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%v at %v ino=%v blk=%d actor=%v other=%v: %s",
		v.Kind, v.At, v.Ino, v.Block, v.Actor, v.Other, v.Detail)
}

// Oracle is the recording interface clients call. A nil *Checker is a
// valid no-op Oracle via the Nop type below.
type Oracle interface {
	// NextVer stamps a new acknowledged cache write and returns its
	// version. Call when the client accepts a write into its cache.
	NextVer(client msg.NodeID, ino msg.ObjectID, block uint64) uint64
	// Committed records that version ver reached stable storage.
	Committed(client msg.NodeID, ino msg.ObjectID, block uint64, ver uint64)
	// Read records a read that observed version verSeen (0 = never
	// written).
	Read(client msg.NodeID, ino msg.ObjectID, block uint64, verSeen uint64)
	// LockActive records that the client now considers itself holding
	// mode on ino; LockInactive that it stopped (release, downgrade to
	// none, invalidation, or local lease expiry).
	LockActive(client msg.NodeID, ino msg.ObjectID, mode msg.LockMode)
	LockInactive(client msg.NodeID, ino msg.ObjectID)
	// ClientCrashed excuses the client's pending writes from lost-update
	// accounting: volatile state of a failed machine is legitimately gone.
	ClientCrashed(client msg.NodeID)

	// The namespace half (names.go). A client reports what it answered
	// from its name cache: that dir holds name as ino (0 = absent), a
	// complete listing of dir, an object's attributes.
	NameServed(client msg.NodeID, dir msg.ObjectID, name string, ino msg.ObjectID)
	ListServed(client msg.NodeID, dir msg.ObjectID, entries []msg.DirEntry)
	AttrServed(client msg.NodeID, attr msg.Attr)
	// The server reports what each mutation it acknowledges changed, and
	// on whose behalf: dir's name now leads to ino (0 = nowhere), an
	// object's attributes are now attr.
	NameChanged(by msg.NodeID, dir msg.ObjectID, name string, ino msg.ObjectID)
	AttrChanged(by msg.NodeID, attr msg.Attr)
	// A client reports how many of its own changes to the namespace are
	// in flight — sent, and the reply not yet applied to its cache — each
	// time the number moves.
	OwnChanges(client msg.NodeID, inFlight int)
}

// Nop is an Oracle that records nothing (live deployments).
type Nop struct{}

func (Nop) NextVer(msg.NodeID, msg.ObjectID, uint64) uint64    { return 0 }
func (Nop) Committed(msg.NodeID, msg.ObjectID, uint64, uint64) {}
func (Nop) Read(msg.NodeID, msg.ObjectID, uint64, uint64)      {}
func (Nop) LockActive(msg.NodeID, msg.ObjectID, msg.LockMode)  {}
func (Nop) LockInactive(msg.NodeID, msg.ObjectID)              {}
func (Nop) ClientCrashed(msg.NodeID)                           {}

type blockKey struct {
	ino   msg.ObjectID
	block uint64
}

type write struct {
	ver       uint64
	writer    msg.NodeID
	at        sim.Time
	committed bool
}

type blockState struct {
	writes []write // version-ordered (versions are globally monotonic)
	// latestCommitted is the highest committed version.
	latestCommitted uint64
}

type activeKey struct {
	ino    msg.ObjectID
	client msg.NodeID
}

// Checker implements Oracle with full recording.
type Checker struct {
	s       *sim.Scheduler
	nextVer uint64
	blocks  map[blockKey]*blockState
	active  map[activeKey]msg.LockMode
	crashed map[msg.NodeID]bool
	// The acknowledged namespace (names.go): every name a mutation has
	// touched, the names present per directory, every object's versions.
	names    map[nameKey]nameState
	listings map[msg.ObjectID]map[string]struct{}
	attrs    map[msg.ObjectID]*attrState
	// changing is each client's count of own namespace changes in flight.
	changing map[msg.NodeID]int

	violations []Violation
	// seenConflict dedups concurrent-conflict reports per (a, b, ino).
	seenConflict map[string]bool
}

// New creates a checker reading global time from s.
func New(s *sim.Scheduler) *Checker {
	return &Checker{
		s:            s,
		blocks:       make(map[blockKey]*blockState),
		active:       make(map[activeKey]msg.LockMode),
		crashed:      make(map[msg.NodeID]bool),
		names:        make(map[nameKey]nameState),
		listings:     make(map[msg.ObjectID]map[string]struct{}),
		changing:     make(map[msg.NodeID]int),
		attrs:        make(map[msg.ObjectID]*attrState),
		seenConflict: make(map[string]bool),
	}
}

func (c *Checker) block(k blockKey) *blockState {
	b := c.blocks[k]
	if b == nil {
		b = &blockState{}
		c.blocks[k] = b
	}
	return b
}

func (c *Checker) violate(v Violation) {
	v.At = c.s.Now()
	c.violations = append(c.violations, v)
}

// NextVer implements Oracle.
func (c *Checker) NextVer(client msg.NodeID, ino msg.ObjectID, block uint64) uint64 {
	c.nextVer++
	b := c.block(blockKey{ino, block})
	b.writes = append(b.writes, write{ver: c.nextVer, writer: client, at: c.s.Now()})
	c.checkConflict(client, ino, "write")
	return c.nextVer
}

// Committed implements Oracle.
func (c *Checker) Committed(client msg.NodeID, ino msg.ObjectID, block uint64, ver uint64) {
	b := c.block(blockKey{ino, block})
	for i := range b.writes {
		if b.writes[i].ver == ver {
			b.writes[i].committed = true
		}
	}
	if ver > b.latestCommitted {
		b.latestCommitted = ver
	}
}

// Read implements Oracle.
func (c *Checker) Read(client msg.NodeID, ino msg.ObjectID, block uint64, verSeen uint64) {
	b := c.block(blockKey{ino, block})
	// Sequential consistency per object: the read must observe the newest
	// acknowledged write, unless every newer write is the reader's own
	// (its cache would have served those).
	for i := len(b.writes) - 1; i >= 0; i-- {
		w := b.writes[i]
		if w.ver <= verSeen {
			break
		}
		if w.writer != client {
			c.violate(Violation{
				Kind: StaleRead, Ino: ino, Block: block,
				Actor: client, Other: w.writer,
				Detail: fmt.Sprintf("read saw v%d but v%d was written at %v", verSeen, w.ver, w.at),
			})
			break
		}
	}
	c.checkConflict(client, ino, "read")
}

// LockActive implements Oracle.
func (c *Checker) LockActive(client msg.NodeID, ino msg.ObjectID, mode msg.LockMode) {
	if mode == msg.LockNone {
		delete(c.active, activeKey{ino, client})
		return
	}
	c.active[activeKey{ino, client}] = mode
}

// LockInactive implements Oracle.
func (c *Checker) LockInactive(client msg.NodeID, ino msg.ObjectID) {
	delete(c.active, activeKey{ino, client})
}

// ClientCrashed implements Oracle.
func (c *Checker) ClientCrashed(client msg.NodeID) {
	c.crashed[client] = true
	for k := range c.active {
		if k.client == client {
			delete(c.active, k)
		}
	}
}

// checkConflict flags an operation performed while another client's
// conflicting lock window is active. The operating client's own believed
// mode is read from its window; operations without any window (no lock
// believed held) are flagged against any exclusive holder.
func (c *Checker) checkConflict(client msg.NodeID, ino msg.ObjectID, op string) {
	own := c.active[activeKey{ino, client}]
	for k, mode := range c.active {
		if k.ino != ino || k.client == client {
			continue
		}
		conflict := !mode.Compatible(own)
		if own == msg.LockNone {
			conflict = mode == msg.LockExclusive
		}
		if !conflict {
			continue
		}
		key := fmt.Sprintf("%v|%v|%v", ino, minNode(client, k.client), maxNode(client, k.client))
		if c.seenConflict[key] {
			continue
		}
		c.seenConflict[key] = true
		c.violate(Violation{
			Kind: ConcurrentConflict, Ino: ino,
			Actor: client, Other: k.client,
			Detail: fmt.Sprintf("%s while %v holds %v and actor holds %v", op, k.client, mode, own),
		})
	}
}

func minNode(a, b msg.NodeID) msg.NodeID {
	if a < b {
		return a
	}
	return b
}

func maxNode(a, b msg.NodeID) msg.NodeID {
	if a > b {
		return a
	}
	return b
}

// FinalCheck scans for lost updates: for each block and each non-crashed
// writer, the writer's newest acknowledged version must not exceed the
// block's newest committed version — otherwise data an application was
// told was written can never be read by anyone. Call after the experiment
// quiesces (failures healed, flushes drained).
func (c *Checker) FinalCheck() []Violation {
	keys := make([]blockKey, 0, len(c.blocks))
	for k := range c.blocks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].ino != keys[j].ino {
			return keys[i].ino < keys[j].ino
		}
		return keys[i].block < keys[j].block
	})
	var out []Violation
	for _, k := range keys {
		b := c.blocks[k]
		maxByWriter := make(map[msg.NodeID]uint64)
		for _, w := range b.writes {
			if w.ver > maxByWriter[w.writer] {
				maxByWriter[w.writer] = w.ver
			}
		}
		for writer, vmax := range maxByWriter {
			if c.crashed[writer] {
				continue
			}
			if vmax > b.latestCommitted {
				v := Violation{
					Kind: LostUpdate, Ino: k.ino, Block: k.block,
					Actor: writer, At: c.s.Now(),
					Detail: fmt.Sprintf("acked v%d never committed (newest on disk v%d)", vmax, b.latestCommitted),
				}
				c.violations = append(c.violations, v)
				out = append(out, v)
			}
		}
	}
	return out
}

// Violations returns everything recorded so far (FinalCheck results
// included once FinalCheck has run).
func (c *Checker) Violations() []Violation { return c.violations }

// Count returns the number of violations of kind k.
func (c *Checker) Count(k Kind) int {
	n := 0
	for _, v := range c.violations {
		if v.Kind == k {
			n++
		}
	}
	return n
}

var _ Oracle = (*Checker)(nil)
var _ Oracle = Nop{}
