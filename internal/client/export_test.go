package client

import "repro/internal/msg"

// ParkedReads counts the demand reads parked on read-ahead batches.
func (c *Client) ParkedReads() int {
	n := 0
	for _, m := range c.pfWaiters {
		for _, ws := range m {
			n += len(ws)
		}
	}
	return n
}

// PrefetchInflight counts the blocks read-ahead batches have on the wire.
func (c *Client) PrefetchInflight() int {
	n := 0
	for _, m := range c.prefetchInflight {
		n += len(m)
	}
	return n
}

// ReadAheadRecords counts the objects holding a detector record.
func (c *Client) ReadAheadRecords() int { return len(c.readAhead) }

// SetNameCap replaces the name cache's entry cap.
func (c *Client) SetNameCap(n int) { c.names.cap = n }

// NamesHeld reports whether directory ino is in the name cache.
func (c *Client) NamesHeld(ino msg.ObjectID) bool { return c.names.dirs[ino] != nil }

// NameDirs and NameEntries count the directories cached and the entries
// (names and file attributes) under them; LocksHeld counts the locks the
// client believes it holds, data and directory.
func (c *Client) NameDirs() int    { return len(c.names.dirs) }
func (c *Client) NameEntries() int { return c.names.count }
func (c *Client) LocksHeld() int   { return len(c.lockedInos) }

// HeldMode is the data lock the client believes it holds on ino.
func (c *Client) HeldMode(ino msg.ObjectID) msg.LockMode { return c.lockedInos[ino] }
