// Package disk is the bufown fixture for the reply loan: a pooled
// payload handed to DiskReadVRes.Lend is the fabric's to Put, and one
// that misses the Lend on some path is a leak like any other.
package disk

import (
	"repro/internal/analysis/bufown/testdata/src/bufpool"
	"repro/internal/analysis/bufown/testdata/src/msg"
)

type D struct {
	send func(*msg.DiskReadVRes)
}

func (d *D) okLend(n int, fenced bool) {
	res := &msg.DiskReadVRes{}
	if fenced {
		d.send(res) // judged before there is a buffer
		return
	}
	data := bufpool.Get(n)
	clear(data)
	res.Lend(data)
	d.send(res)
}

func (d *D) leakRefusedAfterGet(n int, fenced bool) {
	res := &msg.DiskReadVRes{}
	data := bufpool.Get(n) // want `pooled buffer is not released on every path`
	if fenced {
		d.send(res)
		return
	}
	res.Lend(data)
	d.send(res)
}

// The scalar reply's loan: a one-block buffer the media read into is
// lent when the block was served and Put on the paths that serve none.
func (d *D) okLendScalar(n int, served, failed bool, send func(*msg.DiskReadRes)) {
	res := &msg.DiskReadRes{}
	data := bufpool.Get(n)
	switch {
	case failed:
		bufpool.Put(data)
	case served:
		res.Lend(data)
	default:
		bufpool.Put(data)
	}
	send(res)
}

func (d *D) leakScalarHole(n int, served bool, send func(*msg.DiskReadRes)) {
	res := &msg.DiskReadRes{}
	data := bufpool.Get(n) // want `pooled buffer is not released on every path`
	if served {
		res.Lend(data)
	}
	send(res)
}
