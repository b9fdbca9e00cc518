package client

import "repro/internal/msg"

// ParkedReads counts the demand reads parked on read-ahead batches.
func (c *Client) ParkedReads() int {
	n := 0
	for _, o := range c.objs {
		for _, ws := range o.parked {
			n += len(ws)
		}
	}
	return n
}

// PrefetchInflight counts the blocks read-ahead batches have on the wire.
func (c *Client) PrefetchInflight() int {
	n := 0
	for _, o := range c.objs {
		n += len(o.onWire)
	}
	return n
}

// ReadAheadRecords counts the objects holding a detector record.
func (c *Client) ReadAheadRecords() int {
	n := 0
	for _, o := range c.objs {
		if o.ra != (readAhead{}) {
			n++
		}
	}
	return n
}

// SetNameCap replaces the name cache's entry cap.
func (c *Client) SetNameCap(n int) { c.names.cap = n }

// NamesHeld reports whether directory ino is in the name cache.
func (c *Client) NamesHeld(ino msg.ObjectID) bool { return c.names.dirs[ino] != nil }

// NameDirs and NameEntries count the directories cached and the entries
// (names and file attributes) under them; LocksHeld counts the locks the
// client believes it holds, data and directory; Records counts the
// objects it keeps a record of.
func (c *Client) NameDirs() int    { return len(c.names.dirs) }
func (c *Client) NameEntries() int { return c.names.count }
func (c *Client) LocksHeld() int   { return len(c.locked()) }
func (c *Client) Records() int     { return len(c.objs) }

// HeldMode is the data lock the client believes it holds on ino.
func (c *Client) HeldMode(ino msg.ObjectID) msg.LockMode {
	if o := c.objs[ino]; o != nil {
		return o.mode
	}
	return msg.LockNone
}

// Downgrading reports whether a downgrade of ino is in flight: between
// the start of its compliance and the acknowledgment of its report.
func (c *Client) Downgrading(ino msg.ObjectID) bool {
	o := c.objs[ino]
	return o != nil && o.downgrades > 0
}

// LapseObjectLease ends the V baseline's lease on ino now, as if its
// renewals had stopped arriving.
func (c *Client) LapseObjectLease(ino msg.ObjectID) {
	if o := c.objs[ino]; o != nil {
		o.base = c.clock.Now()
	}
}

// SANRead issues a read of block on disk d outside any operation, as the
// data path issues its SAN calls; done receives the outcome.
func (c *Client) SANRead(d msg.NodeID, block uint64, done func(msg.Errno)) {
	c.sanCall(d, func(req msg.ReqID, epoch msg.Epoch) msg.Message {
		return &msg.DiskRead{Client: c.id, Authority: c.server, Epoch: epoch, Req: req, Block: block}
	}, nil, func(_ msg.Message, e msg.Errno) { done(e) })
}
