package client_test

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/msg"
)

// A flush write retransmitted while the disk still queues it must not give
// its pooled payload back on acknowledgment: the duplicate left in the
// queue reads the payload when it is served, and by then the pool may have
// handed the buffer to the next write. The disks here are slower than the
// retry interval, so block 0's DiskWrite is retransmitted while queued;
// block 1 is then written and flushed, and block 0 must still hold what
// its Sync acknowledged once every duplicate has been served.
func TestRetransmittedWriteKeepsItsPayload(t *testing.T) {
	opts := cluster.DefaultOptions()
	opts.DiskService = 3 * opts.Core.RetryInterval
	cl := cluster.New(opts)
	cl.Start()
	h, _ := cl.MustOpen(0, "/f", true, true)
	a := bytes.Repeat([]byte{'A'}, cluster.BlockSize)
	b := bytes.Repeat([]byte{'B'}, cluster.BlockSize)

	before := cl.Reg.CounterValue("net.san.sent.san-io")
	if e := cl.Write(0, h, 0, a); e != msg.OK {
		t.Fatalf("write block 0: %v", e)
	}
	if e := cl.Sync(0); e != msg.OK {
		t.Fatalf("sync block 0: %v", e)
	}
	if sent := cl.Reg.CounterValue("net.san.sent.san-io") - before; sent < 2 {
		t.Fatalf("test is vacuous: block 0's flush sent %d SAN messages, want a retransmission", sent)
	}
	if e := cl.Write(0, h, 1, b); e != msg.OK {
		t.Fatalf("write block 1: %v", e)
	}
	if e := cl.Sync(0); e != msg.OK {
		t.Fatalf("sync block 1: %v", e)
	}
	cl.RunFor(20 * opts.DiskService) // every queued duplicate is served

	h1, _ := cl.MustOpen(1, "/f", false, false)
	got, e := cl.Read(1, h1, 0)
	if e != msg.OK {
		t.Fatalf("read block 0 on another client: %v", e)
	}
	if !bytes.Equal(got, a) {
		t.Fatalf("block 0 holds %q…, want the %q… its Sync acknowledged: a duplicate "+
			"write served a recycled payload", got[:8], a[:8])
	}
}
