// Package disk is the ackdurable fixture for rule A2: a function that
// transmits a DiskWriteRes/DiskWriteVRes/FenceRes must contain a durable
// media call whose error it actually consumed.
package disk

import (
	"repro/internal/analysis/ackdurable/testdata/src/blockstore"
	"repro/internal/analysis/ackdurable/testdata/src/msg"
)

type Disk struct {
	media blockstore.Media
	out   func(to msg.NodeID, m any)
}

func (d *Disk) send(to msg.NodeID, m any) { d.out(to, m) }

func (d *Disk) ackAfterCheckedWrite(client msg.NodeID, block uint64, data []byte, ver uint64) {
	if err := d.media.Write(block, data, ver); err != nil {
		return
	}
	d.send(client, &msg.DiskWriteRes{Block: block, OK: true})
}

func (d *Disk) ackWithoutMedia(client msg.NodeID, block uint64) {
	d.send(client, &msg.DiskWriteRes{Block: block, OK: true}) // want `reply sent without any durable media call`
}

func (d *Disk) ackDiscardedFence(client msg.NodeID, target msg.NodeID) {
	_ = d.media.RaiseFence(blockstore.Fence{Target: target, Below: 1})
	d.send(client, &msg.FenceRes{Target: target}) // want `discards its error`
}

func (d *Disk) ackBatch(client msg.NodeID, batch []blockstore.BlockWrite) {
	res := &msg.DiskWriteVRes{OK: make([]bool, len(batch))}
	for i, err := range d.media.WriteV(batch) {
		res.OK[i] = err == nil
	}
	d.send(client, res)
}

// statusOnly sends a non-ack message; no durability point is required.
func (d *Disk) statusOnly(client msg.NodeID) {
	d.send(client, "status")
}
