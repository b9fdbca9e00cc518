package main

import (
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/blockstore"
	"repro/internal/bufpool"
	"repro/internal/cache"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/lock"
	"repro/internal/meta"
	"repro/internal/msg"
	"repro/internal/rpcnet"
	"repro/internal/sim"
	"repro/internal/wire"
)

// The probes time single layers in isolation, on the inputs the workload
// generates. They split what the one-way spans lump together — a
// rpcnet.ctrl_req_us is encode + write + read + decode + executor hop —
// and give a layer change its own before/after without a whole run.

// perOp times n calls of fn, five times over, and returns the median
// time per call in nanoseconds.
func perOp(n int, fn func()) float64 {
	var batches [5]float64
	for b := range batches {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		batches[b] = float64(time.Since(start)) / float64(n)
	}
	sort.Float64s(batches[:])
	return batches[len(batches)/2]
}

// probePaths are file paths as the meta workloads name them.
func probePaths(n int) []string {
	ps := make([]string, n)
	for i := range ps {
		ps[i] = fmt.Sprintf("/w0/d%d/f%d", i/metaPerDir, i%metaPerDir)
	}
	return ps
}

// probeStore builds a metadata store holding files files, laid out as the
// meta workloads lay theirs out.
func probeStore(files int) (*meta.Store, []string, error) {
	st := meta.NewStore(meta.NewAllocator(map[msg.NodeID]uint64{firstDisk: diskBlocks}))
	paths := probePaths(files)
	if _, errno := st.Create("/w0", true); errno != msg.OK {
		return nil, nil, errno
	}
	for i, p := range paths {
		if i%metaPerDir == 0 {
			if _, errno := st.Create(filepath.Dir(p), true); errno != msg.OK {
				return nil, nil, errno
			}
		}
		if _, errno := st.Create(p, false); errno != msg.OK {
			return nil, nil, errno
		}
	}
	return st, paths, nil
}

func encodeFrame(env *msg.Envelope) ([]byte, error) {
	n, tail, err := msg.BinarySize(env)
	if err != nil {
		return nil, err
	}
	body := make([]byte, n, n+len(tail))
	if err := msg.EncodeBinary(body, env); err != nil {
		return nil, err
	}
	return append(body, tail...), nil
}

type noDemands struct{}

func (noDemands) Demand(msg.NodeID, msg.ObjectID, msg.LockMode, msg.DemandID) {}

// runProbes measures every probe and stores it in vals under its
// per-layer name.
func runProbes(w workload, seed int64, dir string, vals map[string]float64) error {
	paths := probePaths(metaPerDir)
	block := stamped(stamp{client: 1, file: uint64(seed)})
	batch32 := make([]byte, 32*client.BlockSize)
	vecs := make([]msg.BlockVec, 32)
	for i := range vecs {
		copy(batch32[i*client.BlockSize:], stamped(stamp{idx: uint64(i)}))
		vecs[i] = msg.BlockVec{Block: uint64(i), Ver: 1}
	}

	// msg: the binary codec on a control request, a control reply, the
	// flush path's 32-block write and read-ahead's 3-block reply.
	lookup := &msg.Envelope{From: firstClient, To: serverID, Payload: &msg.Lookup{
		ReqHeader: msg.ReqHeader{Client: firstClient, Req: 1, Epoch: 1}, Path: paths[len(paths)-1]}}
	reply := &msg.Envelope{From: serverID, To: firstClient, Payload: &msg.Reply{
		Client: firstClient, Req: 1, Status: msg.ACK, Body: msg.LookupRes{Attr: msg.Attr{Ino: 7, Nlink: 1}}}}
	writeV := &msg.Envelope{From: firstClient, To: firstDisk, Payload: &msg.DiskWriteV{
		Client: firstClient, Req: 1, Blocks: vecs, Data: batch32}}
	readVRes := &msg.Envelope{From: firstDisk, To: firstClient, Payload: &msg.DiskReadVRes{
		Req: 1, Errs: make([]msg.Errno, 3), Vers: make([]uint64, 3), Data: batch32[:3*client.BlockSize]}}
	var probeErr error
	encode := func(env *msg.Envelope) func() {
		n, _, err := msg.BinarySize(env)
		if err != nil {
			probeErr = err
		}
		buf := make([]byte, n)
		return func() {
			if _, _, err := msg.BinarySize(env); err != nil {
				probeErr = err
			}
			if err := msg.EncodeBinary(buf, env); err != nil {
				probeErr = err
			}
		}
	}
	decode := func(env *msg.Envelope) func() {
		body, err := encodeFrame(env)
		if err != nil {
			probeErr = err
		}
		return func() {
			if _, err := msg.DecodeBinary(body); err != nil {
				probeErr = err
			}
		}
	}
	vals["msg.encode_ctrl_ns"] = perOp(20000, encode(lookup))
	vals["msg.decode_ctrl_ns"] = perOp(20000, decode(reply))
	vals["msg.encode_writev32_ns"] = perOp(20000, encode(writeV))
	vals["msg.decode_readvres_ns"] = perOp(20000, decode(readVRes))
	if probeErr != nil {
		return probeErr
	}

	v, err := probeWire(lookup, reply)
	if err != nil {
		return err
	}
	vals["wire.roundtrip_us"] = v / 1e3
	small := &msg.KeepAlive{ReqHeader: msg.ReqHeader{Client: 2, Req: 1}}
	if v, err = probePingPong(small, &msg.Reply{Client: 2, Req: 1, Status: msg.ACK}); err != nil {
		return err
	}
	vals["rpcnet.pingpong_us"] = v / 1e3
	big := &msg.DiskWrite{Client: 2, Req: 1, Block: 1, Data: block, Ver: 1}
	if v, err = probePingPong(big, &msg.DiskWriteRes{Req: 1}); err != nil {
		return err
	}
	vals["rpcnet.pingpong_4k_us"] = v / 1e3
	vals["rpcnet.exec_hop_ns"] = probeExecHop()

	rc := core.NewReplyCache(128, nil, "probe.")
	req := msg.ReqID(0)
	vals["core.replycache_ns"] = perOp(20000, func() {
		req++
		rc.Admit(firstClient, req)
		rc.Complete(firstClient, req, reply.Payload.(*msg.Reply))
	})
	locks := lock.NewTable(noDemands{})
	vals["lock.acquire_release_ns"] = perOp(20000, func() {
		locks.Acquire(firstClient, 7, msg.LockExclusive, func(msg.LockMode) {})
		locks.Release(firstClient, 7, msg.LockNone)
	})

	// meta: on a store as large as the workload's namespace.
	st, stPaths, err := probeStore(w.files)
	if err != nil {
		return err
	}
	i := 0
	vals["meta.lookup_ns"] = perOp(20000, func() {
		st.Lookup(stPaths[i%len(stPaths)])
		i++
	})
	vals["meta.create_ns"] = perOp(20000, func() {
		st.Create("/w0/probe", false)
		st.Unlink("/w0/probe")
	})
	snap := filepath.Join(dir, snapshotFile)
	vals["meta.snapshot_us"] = perOp(3, func() {
		if err := st.SaveSnapshot(snap); err != nil {
			probeErr = err
		}
	}) / 1e3
	if probeErr != nil {
		return probeErr
	}

	// cache: a hit, a fill that evicts (the cache is kept at its quota),
	// and a write over a clean page, which must copy it first.
	const quotaPages = cacheQuota / client.BlockSize
	ch := cache.NewWithLimits(nil, "probe.", 0, cacheQuota)
	fill := newBlock()
	next := uint64(0)
	fillOne := func() {
		setStamp(fill, stamp{idx: next})
		ch.Fill(1, next, fill, 1)
		next++
	}
	for next < quotaPages {
		fillOne()
	}
	vals["cache.fill_evict_ns"] = perOp(5000, fillOne)
	vals["cache.read_hit_ns"] = perOp(20000, func() { ch.Lookup(1, next-1) })
	vals["cache.write_cow_ns"] = perOp(5000, func() {
		ch.Write(1, next-1, block, 2)
		ch.MarkClean(1, next-1)
	})
	vals["bufpool.getput_ns"] = perOp(20000, func() { bufpool.Put(bufpool.Get(client.BlockSize)) })

	// disk over memory media: the device model without the media's cost.
	d := disk.New(firstDisk, disk.Config{Blocks: diskBlocks}, sim.NewRealClock(nil),
		func(msg.NodeID, msg.Message) {}, nil, disk.Observer{})
	vals["disk.deliver_writev_mem_us"] = perOp(500, func() { d.Deliver(*writeV) }) / 1e3

	// blockstore with fsync on: one block, and a flush-sized batch.
	media, err := blockstore.Open(filepath.Join(dir, "probe-media"), blockstore.Options{Blocks: diskBlocks})
	if err != nil {
		return err
	}
	defer media.Close()
	vals["blockstore.write1_sync_us"] = perOp(40, func() {
		if err := media.Write(1, block, 1); err != nil {
			probeErr = err
		}
	}) / 1e3
	writes := make([]blockstore.BlockWrite, 32)
	for i := range writes {
		writes[i] = blockstore.BlockWrite{Block: uint64(i), Data: batch32[i*client.BlockSize : (i+1)*client.BlockSize], Ver: 1}
	}
	vals["blockstore.writev32_sync_us"] = perOp(20, func() {
		for _, err := range media.WriteV(writes) {
			if err != nil {
				probeErr = err
			}
		}
	}) / 1e3
	return probeErr
}

// probeWire times a request and its reply through two binary codecs over
// one loopback connection: the wire layer with no transport above it.
func probeWire(req, rep *msg.Envelope) (float64, error) {
	l, err := net.Listen("tcp", rpcnet.Loopback())
	if err != nil {
		return 0, err
	}
	defer l.Close()
	echoErr := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			echoErr <- err
			return
		}
		defer conn.Close()
		c, err := wire.Accept(conn)
		for err == nil {
			var env *msg.Envelope
			if env, err = c.Recv(); err == nil {
				env.Release()
				err = c.Send(rep)
			}
		}
		echoErr <- err
	}()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return 0, err
	}
	c, err := wire.Dial(conn, wire.Binary)
	if err != nil {
		conn.Close()
		return 0, err
	}
	var rtErr error
	v := perOp(1000, func() {
		if err := c.Send(req); err != nil {
			rtErr = err
			return
		}
		env, err := c.Recv()
		if err != nil {
			rtErr = err
			return
		}
		env.Release()
	})
	conn.Close()
	<-echoErr // the echo side ends on the close; its error is that EOF
	return v, rtErr
}

// probePingPong times req going one way and rep coming back through two
// rpcnet Transports: the wire layer plus send goroutines, read loops and
// an executor hop at each end.
func probePingPong(req, rep msg.Message) (float64, error) {
	const a, b msg.NodeID = 2, 1
	var tb *rpcnet.Transport
	tb = rpcnet.New(b, nil, func(msg.Envelope) { tb.Send(a, rep) })
	defer tb.Close()
	addr, err := tb.Listen(rpcnet.Loopback())
	if err != nil {
		return 0, err
	}
	back := make(chan struct{}, 1)
	ta := rpcnet.New(a, map[msg.NodeID]string{b: addr.String()}, func(msg.Envelope) { back <- struct{}{} })
	defer ta.Close()
	go tb.Run()
	go ta.Run()
	var rtErr error
	v := perOp(1000, func() {
		ta.Send(b, req)
		select {
		case <-back:
		case <-time.After(bootTimeout):
			rtErr = fmt.Errorf("rpcnet ping-pong: no reply")
		}
	})
	return v, rtErr
}

// probeExecHop times Executor.Submit → the submitted function running.
func probeExecHop() float64 {
	e := rpcnet.NewExecutor()
	go e.Run()
	defer e.Close()
	ran := make(chan time.Time)
	var total time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		start := time.Now()
		e.Submit(func() { ran <- time.Now() })
		total += (<-ran).Sub(start)
	}
	return float64(total) / n
}
