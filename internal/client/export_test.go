package client

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
