package checker

import (
	"fmt"
	"sort"

	"repro/internal/msg"
)

// The namespace half of the oracle (DESIGN.md §18). A client that answers
// a lookup, a stat or a readdir from its name cache says what it served;
// the server says what every acknowledged mutation changed. Three
// failures follow, each the metadata twin of StaleRead:
//
//   - StaleName: a name served as present (by a lookup, or in a listing)
//     after another client's acknowledged unlink or rename took it away,
//     or gave it to a different object.
//   - StaleNegative: a name served as absent — a negative entry, or a
//     complete listing that lacks it — after another client's
//     acknowledged create or rename put it there.
//   - StaleAttr: attributes served with a Version older than one an
//     acknowledged change produced (every change to Size or Nlink moves
//     Version).
//
// A client's own changes are excused while one is in flight (OwnChanges):
// between the server's acknowledgment and its arrival the mutator's
// operation is still in progress, and its cache is allowed to lag its own
// request. Once every reply has been applied the client answers for its
// own changes like anybody's: a name it created and was told so must not
// turn absent again because an older answer arrived late.

type nameKey struct {
	dir  msg.ObjectID
	name string
}

// nameState is the acknowledged truth about one name.
type nameState struct {
	ino msg.ObjectID // 0 = absent
	by  msg.NodeID   // who made it so
}

// attrState is the acknowledged truth about one object's attributes:
// the newest version each client's changes produced.
type attrState struct {
	by map[msg.NodeID]uint64
}

// NameChanged implements Oracle.
func (c *Checker) NameChanged(by msg.NodeID, dir msg.ObjectID, name string, ino msg.ObjectID) {
	c.names[nameKey{dir, name}] = nameState{ino: ino, by: by}
	d := c.listings[dir]
	if d == nil {
		d = make(map[string]struct{})
		c.listings[dir] = d
	}
	if ino == 0 {
		delete(d, name)
	} else {
		d[name] = struct{}{}
	}
}

// AttrChanged implements Oracle.
func (c *Checker) AttrChanged(by msg.NodeID, attr msg.Attr) {
	a := c.attrs[attr.Ino]
	if a == nil {
		a = &attrState{by: make(map[msg.NodeID]uint64)}
		c.attrs[attr.Ino] = a
	}
	if attr.Version > a.by[by] {
		a.by[by] = attr.Version
	}
}

// OwnChanges implements Oracle.
func (c *Checker) OwnChanges(client msg.NodeID, inFlight int) {
	c.changing[client] = inFlight
}

// excused reports whether client's cache may still lag a change made by by.
func (c *Checker) excused(client, by msg.NodeID) bool {
	return by == client && c.changing[client] > 0
}

// NameServed implements Oracle.
func (c *Checker) NameServed(client msg.NodeID, dir msg.ObjectID, name string, ino msg.ObjectID) {
	truth, known := c.names[nameKey{dir, name}]
	if !known || truth.ino == ino || c.excused(client, truth.by) {
		return
	}
	kind, what := StaleName, fmt.Sprintf("served %q -> %v", name, ino)
	if ino == 0 {
		kind, what = StaleNegative, fmt.Sprintf("served %q as absent", name)
	}
	c.violate(Violation{Kind: kind, Ino: dir, Actor: client, Other: truth.by,
		Detail: fmt.Sprintf("%s but %v's acknowledged change made it %v", what, truth.by, truth.ino)})
}

// ListServed implements Oracle.
func (c *Checker) ListServed(client msg.NodeID, dir msg.ObjectID, entries []msg.DirEntry) {
	served := make(map[string]struct{}, len(entries))
	for _, e := range entries {
		served[e.Name] = struct{}{}
		c.NameServed(client, dir, e.Name, e.Ino)
	}
	var missing []string
	for name := range c.listings[dir] {
		if _, ok := served[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing) // the simulator's runs must repeat
	for _, name := range missing {
		c.NameServed(client, dir, name, 0)
	}
}

// AttrServed implements Oracle.
func (c *Checker) AttrServed(client msg.NodeID, attr msg.Attr) {
	a := c.attrs[attr.Ino]
	if a == nil {
		return
	}
	var other msg.NodeID
	var newest uint64
	for by, ver := range a.by {
		if !c.excused(client, by) && (ver > newest || ver == newest && by < other) {
			other, newest = by, ver
		}
	}
	if newest > attr.Version {
		c.violate(Violation{Kind: StaleAttr, Ino: attr.Ino, Actor: client, Other: other,
			Detail: fmt.Sprintf("served version %d but %v's acknowledged change made it %d", attr.Version, other, newest)})
	}
}

func (Nop) NameServed(msg.NodeID, msg.ObjectID, string, msg.ObjectID)  {}
func (Nop) ListServed(msg.NodeID, msg.ObjectID, []msg.DirEntry)        {}
func (Nop) AttrServed(msg.NodeID, msg.Attr)                            {}
func (Nop) NameChanged(msg.NodeID, msg.ObjectID, string, msg.ObjectID) {}
func (Nop) AttrChanged(msg.NodeID, msg.Attr)                           {}
func (Nop) OwnChanges(msg.NodeID, int)                                 {}
