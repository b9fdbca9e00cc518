package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockstore"
	"repro/internal/client"
	"repro/internal/msg"
	"repro/internal/rpcnet"
)

// The recorder is the layer trace taken from outside: nothing under
// internal/ is instrumented. The traced topology (install.go) hands every
// node a wrapped Sender, a wrapped Deliver and, for disks, a wrapped
// blockstore.Media; each wrapper appends a span to the buffer of the node
// it belongs to. A node's callbacks all run on that node's executor, so
// the buffers need no lock. Spans stay in memory until the window ends;
// analyze then joins every send to the delivery it caused through the
// (client, request) pair the message already carries.

// layer names what a span measures.
type layer uint8

const (
	// Driver side of one operation.
	lOp        layer = iota // the whole operation, as the workload times it
	lSubmitHop              // SyncClient call → the client's executor starts it
	lWakeHop                // completion callback → the driver runs again
	// Handler spans: entry to exit of a node's Deliver (or, for
	// lClientStart, of the function that starts an operation on the
	// client's executor).
	lClientStart
	lClientDeliver
	lServerHandle
	lDiskHandle
	// One-way spans, built by the join: sender call → peer Deliver entry.
	lCtrlReq // client → server: requests and demand acks
	lCtrlRep // server → client: replies and demands
	lSANReq  // client → disk
	lSANRep  // disk → client
	// Media calls made by a disk.
	lMediaRead
	lMediaWrite
	lMediaWriteV
	// lSend marks a sender call awaiting its join; it never survives
	// analyze.
	lSend
	nLayers
)

// class tells messages with separate ID spaces apart, so that a join key
// is unique.
type class uint8

const (
	clsNone class = iota
	clsCtrlReq
	clsCtrlRep
	clsDemand
	clsDemandAck
	clsSANReq
	clsSANRep
)

// oneWay maps a message class to the layer of its send→deliver span.
var oneWay = [...]layer{
	clsCtrlReq:   lCtrlReq,
	clsDemandAck: lCtrlReq,
	clsCtrlRep:   lCtrlRep,
	clsDemand:    lCtrlRep,
	clsSANReq:    lSANReq,
	clsSANRep:    lSANRep,
}

// span is one measured interval on the recorder's clock. It holds no
// pointers, so millions of them cost the garbage collector nothing.
type span struct {
	start, end int64 // ns since the recorder was made
	req        uint64
	client     msg.NodeID // whose operation the work belongs to
	layer      layer
	class      class
}

type recorder struct {
	t0      time.Time
	enabled atomic.Bool
	nodes   []*nodeRec
	// drivers holds the spans driver goroutines record (operations and
	// wake hops), one buffer per driver so they do not share a lock.
	drivers [][]span
}

func newRecorder(nDrivers int) *recorder {
	return &recorder{t0: time.Now(), drivers: make([][]span, nDrivers)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// nodeRec is one node's span buffer, written only from that node's
// executor goroutine.
type nodeRec struct {
	rec   *recorder
	id    msg.NodeID
	spans []span
	// handling is the client whose request the node's Deliver is serving
	// right now; media calls made meanwhile inherit it.
	handling msg.NodeID
}

func (r *recorder) node(id msg.NodeID) *nodeRec {
	n := &nodeRec{rec: r, id: id}
	r.nodes = append(r.nodes, n)
	return n
}

// classify extracts a message's join key. peer is the node at the far
// end from the server or disk: the destination when sending a reply,
// the receiver itself when one is delivered — replies on the SAN and
// demands do not name the client they are for.
func classify(m msg.Message, peer msg.NodeID) (class, msg.NodeID, uint64) {
	switch m := m.(type) {
	case *msg.Reply:
		return clsCtrlRep, m.Client, uint64(m.Req)
	case *msg.Demand:
		return clsDemand, peer, uint64(m.ID)
	case *msg.DemandAck:
		return clsDemandAck, m.Client, uint64(m.ID)
	case msg.Request:
		h := m.Hdr()
		return clsCtrlReq, h.Client, uint64(h.Req)
	case *msg.DiskRead:
		return clsSANReq, m.Client, uint64(m.Req)
	case *msg.DiskWrite:
		return clsSANReq, m.Client, uint64(m.Req)
	case *msg.DiskReadV:
		return clsSANReq, m.Client, uint64(m.Req)
	case *msg.DiskWriteV:
		return clsSANReq, m.Client, uint64(m.Req)
	case *msg.DiskReadRes:
		return clsSANRep, peer, uint64(m.Req)
	case *msg.DiskWriteRes:
		return clsSANRep, peer, uint64(m.Req)
	case *msg.DiskReadVRes:
		return clsSANRep, peer, uint64(m.Req)
	case *msg.DiskWriteVRes:
		return clsSANRep, peer, uint64(m.Req)
	}
	return clsNone, 0, 0
}

// sender wraps a node's Sender: the call instant opens a one-way span
// that the receiving node's Deliver entry closes.
func (n *nodeRec) sender(send func(to msg.NodeID, m msg.Message)) func(to msg.NodeID, m msg.Message) {
	return func(to msg.NodeID, m msg.Message) {
		if n.rec.enabled.Load() {
			if cls, cl, req := classify(m, to); cls != clsNone {
				n.spans = append(n.spans, span{start: n.rec.now(), req: req, client: cl, layer: lSend, class: cls})
			}
		}
		send(to, m)
	}
}

// deliver wraps a node's Deliver or DeliverSAN in a handler span.
func (n *nodeRec) deliver(l layer, env msg.Envelope, handle func(msg.Envelope)) {
	if !n.rec.enabled.Load() {
		handle(env)
		return
	}
	cls, cl, req := classify(env.Payload, env.To)
	n.handling = cl
	start := n.rec.now()
	handle(env)
	n.spans = append(n.spans, span{start: start, end: n.rec.now(), req: req, client: cl, layer: l, class: cls})
	n.handling = 0
}

// await is the traced counterpart of rpcnet.ClientNode.Sync's pump. It
// does what that one does — start the operation on the executor, block
// the caller until done or timeout — and records the two hops between
// the driver goroutine and the executor, which belong to no node's
// Deliver. drv is the buffer of whichever driver is calling; one
// SyncClient has one caller at a time.
func (n *nodeRec) await(exec *rpcnet.Executor, timeout time.Duration, drv *[]span) client.Await {
	return func(start func(done func())) bool {
		on := n.rec.enabled.Load()
		ch := make(chan struct{})
		var doneAt int64
		submitted := n.rec.now()
		exec.Submit(func() {
			began := n.rec.now()
			var once sync.Once
			start(func() {
				once.Do(func() {
					doneAt = n.rec.now()
					close(ch)
				})
			})
			if on {
				n.spans = append(n.spans,
					span{start: submitted, end: began, client: n.id, layer: lSubmitHop},
					span{start: began, end: n.rec.now(), client: n.id, layer: lClientStart})
			}
		})
		tmo := time.NewTimer(timeout)
		defer tmo.Stop()
		select {
		case <-ch:
			if on {
				*drv = append(*drv, span{start: doneAt, end: n.rec.now(), client: n.id, layer: lWakeHop})
			}
			return true
		case <-tmo.C:
			return false
		}
	}
}

// tracedMedia times the calls a disk makes into its media. fsync happens
// inside Write and WriteV and cannot be split off from here; its share
// comes from the media's own fsync_wait histogram.
type tracedMedia struct {
	blockstore.Media
	n *nodeRec
	// written counts the bytes the media was asked to store, trailers
	// included, for blockstore.bytes_per_user_byte.
	written atomic.Uint64
}

// trailerBytes is what blockstore.File writes beside each 4 KiB block.
const trailerBytes = 24

func (m *tracedMedia) record(l layer, start int64) {
	if m.n.rec.enabled.Load() {
		m.n.spans = append(m.n.spans, span{start: start, end: m.n.rec.now(), client: m.n.handling, layer: l})
	}
}

func (m *tracedMedia) Read(block uint64) ([]byte, uint64, bool, error) {
	start := m.n.rec.now()
	data, ver, ok, err := m.Media.Read(block)
	m.record(lMediaRead, start)
	return data, ver, ok, err
}

func (m *tracedMedia) Write(block uint64, data []byte, ver uint64) error {
	start := m.n.rec.now()
	err := m.Media.Write(block, data, ver)
	m.record(lMediaWrite, start)
	m.written.Add(blockstore.BlockSize + trailerBytes)
	return err
}

func (m *tracedMedia) WriteV(batch []blockstore.BlockWrite) []error {
	start := m.n.rec.now()
	errs := m.Media.WriteV(batch)
	m.record(lMediaWriteV, start)
	m.written.Add(uint64(len(batch)) * (blockstore.BlockSize + trailerBytes))
	return errs
}

// --- analysis ---------------------------------------------------------------

type joinKey struct {
	class  class
	client msg.NodeID
	req    uint64
}

// layerStats is what one layer's spans add up to over the window.
type layerStats struct {
	count int
	total int64 // ns
}

func (s layerStats) meanUS() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.total) / float64(s.count) / 1e3
}

// traceResult is everything analyze derives from the spans.
type traceResult struct {
	layers [nLayers]layerStats
	// diskSelf is the disks' handler time with the media calls inside it
	// taken out.
	diskSelf layerStats
	// opTotal and opCovered are the operations' summed durations and the
	// part of them some child span covers.
	opTotal, opCovered int64
	ops                int
	spans              []span // every finished span, for -spans
}

// analyze joins sends to deliveries and adds the spans up. allClients
// says an operation involves every client (lock_handoff: one operation in
// flight, carried by both), so every span inside its interval is its
// child; otherwise a span belongs to the operation of the client it
// names.
func (r *recorder) analyze(allClients bool) traceResult {
	var res traceResult
	sends := make(map[joinKey]int64)
	for _, n := range r.nodes {
		for _, s := range n.spans {
			if s.layer == lSend {
				k := joinKey{s.class, s.client, s.req}
				if _, dup := sends[k]; !dup { // a retransmission keeps the first send
					sends[k] = s.start
				}
			}
		}
	}
	for _, n := range r.nodes {
		var media, handlers []interval
		for _, s := range n.spans {
			switch s.layer {
			case lSend:
				continue
			case lMediaRead, lMediaWrite, lMediaWriteV:
				media = append(media, interval{s.start, s.end})
			case lDiskHandle:
				handlers = append(handlers, interval{s.start, s.end})
			}
			res.spans = append(res.spans, s)
			if s.class == clsNone {
				continue
			}
			k := joinKey{s.class, s.client, s.req}
			if sent, ok := sends[k]; ok {
				delete(sends, k) // a duplicate delivery joins nothing
				res.spans = append(res.spans, span{start: sent, end: s.start,
					req: s.req, client: s.client, layer: oneWay[s.class], class: s.class})
			}
		}
		// A node's buffer is in completion order: a handler span follows
		// the media spans inside it. Both lists are in start order.
		lo := 0
		for _, h := range handlers {
			for lo < len(media) && media[lo].end <= h.start {
				lo++
			}
			res.diskSelf.count++
			res.diskSelf.total += uncovered(h.start, h.end, media[lo:])
		}
	}
	var ops []span
	for _, d := range r.drivers {
		for _, s := range d {
			if s.layer == lOp {
				ops = append(ops, s)
			} else {
				res.spans = append(res.spans, s)
			}
		}
	}
	for _, s := range res.spans {
		res.layers[s.layer].count++
		res.layers[s.layer].total += s.end - s.start
	}

	children := make(map[msg.NodeID][]interval)
	for _, s := range res.spans {
		cl := s.client
		if allClients {
			cl = 0
		}
		children[cl] = append(children[cl], interval{s.start, s.end})
	}
	for _, c := range children {
		sort.Slice(c, func(i, j int) bool { return c[i].start < c[j].start })
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].start < ops[j].start })
	lo := make(map[msg.NodeID]int)
	for _, op := range ops {
		cl := op.client
		if allClients {
			cl = 0
		}
		c := children[cl]
		i := lo[cl]
		for i < len(c) && c[i].end <= op.start {
			i++
		}
		lo[cl] = i
		free := uncovered(op.start, op.end, c[i:])
		res.opTotal += op.end - op.start
		res.opCovered += op.end - op.start - free
	}
	res.ops = len(ops)
	res.layers[lOp] = layerStats{count: len(ops), total: res.opTotal}
	res.spans = append(res.spans, ops...)
	return res
}
