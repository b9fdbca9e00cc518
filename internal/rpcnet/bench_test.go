package rpcnet

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/client"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/stats"
)

var (
	sinkAttr msg.Attr
	sinkData []byte
)

// BenchmarkSyncHit is a ClientNode.Sync call the caches answer: what a
// synchronous caller pays for an operation that needs nobody else — a
// Lookup from the name cache, a ReadAt of a resident page, a WriteAt over
// one. Each is one call of the operation's hit function on the caller's
// goroutine (DESIGN §20.6), so it must arm no timeout timer and send
// nothing. The set-up (newHitFile) keeps every protocol timer out of the
// timed loop.
func BenchmarkSyncHit(b *testing.B) {
	f := newHitFile(b, 1)
	block := make([]byte, client.BlockSize)
	for _, bc := range []struct {
		name    string
		counter string
		op      func() error
	}{
		{"Lookup", "client.n10.names.hits", func() (err error) { sinkAttr, err = f.fs.Lookup("/d/f"); return err }},
		{"ReadAt", "client.n10.cache.hits", func() (err error) { sinkData, err = f.fs.ReadAt(f.h, 0); return err }},
		{"WriteAt", "client.n10.writes", func() error { return f.fs.WriteAt(f.h, 0, block) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			clk := newPendingClock()
			f.cn.tmo = clk
			hits := f.cn.Reg.Counter(bc.counter)
			sent := f.cn.Reg.Counter("client.n10.chan.sent")
			before, sentBefore := hits.Value(), sent.Value()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bc.op(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if got := hits.Value() - before; got != uint64(b.N) || sent.Value() != sentBefore {
				b.Fatalf("%d of %d calls counted by %s, %d requests sent", got, b.N, bc.counter, sent.Value()-sentBefore)
			}
			armed, _ := clk.counts()
			b.ReportMetric(float64(armed)/float64(b.N), "timers/op")
			if armed != 0 {
				b.Fatalf("%d timeout timers armed for %d hits", armed, b.N)
			}
		})
	}
}

// BenchmarkSyncAppend is tankbench's append_sync on one live client over
// loopback: per op, eight WriteAt calls extend a file by 32 KiB and a
// SyncAll writes the blocks back, in one DiskWriteV, and settles the
// size. At 1 024 blocks the file is truncated to empty, untimed, as
// append_sync does. Every call that waits joins the node's deadline
// queue, which arms at most one timer per timeout; timers/op counts the
// timers armed on the node's timeout clock. τ and the retry interval are
// an hour, so no keep-alive or retransmission lands in the loop.
func BenchmarkSyncAppend(b *testing.B) {
	const (
		blocks = 8
		wrap   = 1024
	)
	cfg := liveCore()
	cfg.Tau = time.Hour
	cfg.RetryInterval = time.Hour
	lc := startLiveCfg(b, 1, cfg)
	cn := lc.clients[0]
	if err := cn.Start(5 * time.Second); err != nil {
		b.Fatal(err)
	}
	fs := cn.Sync(5 * time.Second)
	h, _, err := fs.Open("/append", true, true)
	if err != nil {
		b.Fatal(err)
	}
	block := bytes.Repeat([]byte{'a'}, client.BlockSize)
	clk := &sim.CountingClock{Clock: cn.tmo}
	cn.tmo = clk
	next := uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if next == wrap {
			b.StopTimer()
			if err := fs.Truncate(h, 0); err != nil {
				b.Fatal(err)
			}
			next = 0
			b.StartTimer()
		}
		for k := 0; k < blocks; k++ {
			if err := fs.WriteAt(h, next, block); err != nil {
				b.Fatal(err)
			}
			next++
		}
		if err := fs.SyncAll(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(clk.Armed())/float64(b.N), "timers/op")
}

// BenchmarkExecutorDo is a task brought to an idle executor: it runs on
// the caller, between two uncontended lock/unlock pairs.
func BenchmarkExecutorDo(b *testing.B) {
	e := NewExecutor()
	go e.Run()
	defer e.Close()
	n := 0
	task := func() { n++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Do(task)
	}
	b.StopTimer()
	if n != b.N {
		b.Fatalf("%d of %d tasks ran before Do returned", n, b.N)
	}
}

// TestSendAndDoAllocs pins in the tier-1 suite what BenchmarkExecutorDo
// and BenchmarkTransportSend report: a task run on an idle executor and a
// control message written inline to a connected peer allocate nothing.
func TestSendAndDoAllocs(t *testing.T) {
	if bufpool.Debug {
		t.Skip("tankdebug hooks allocate by design")
	}
	e := NewExecutor()
	go e.Run()
	defer e.Close()
	n := 0
	task := func() { n++ }
	if got := testing.AllocsPerRun(1000, func() { e.Do(task) }); got != 0 {
		t.Errorf("Executor.Do: %v allocs, want 0", got)
	}
	tr := connectedSender(t)
	m := keepAlive(1)
	if got := testing.AllocsPerRun(1000, func() { tr.Send(2, m) }); got != 0 {
		t.Errorf("Transport.Send: %v allocs, want 0", got)
	}
}

// raceOn is set in a build with the race detector (race_on_test.go).
var raceOn bool

// TestRecvAllocs pins in the tier-1 suite what a received frame costs the
// live receive path (DESIGN §12.3, §21.6): its message, and nothing else
// — no envelope, no borrow cell, no task closure, no body copied out of
// the connection buffer. A KeepAlive round trip over loopback is two
// frames, each decoded where it landed and handled on its read loop, so
// two objects: the two KeepAlives. A DiskReadRes aliases its frame, which
// is copied into a pooled body (it is under half the buffer) that the
// message's own borrow cell holds until the handler returns: one object,
// the DiskReadRes. An 8-page DiskWriteV leaves in the buffer it landed in,
// and the connection reads on into one from the pool: two objects, the
// DiskWriteV and the block list the decoder makes for it.
//
// What a page message pins is the other half: a handler that keeps every
// frame makes each one cost the connection a fresh buffer, so the bytes
// allocated per kept frame are what it pins, and must stay within twice
// the frame.
func TestRecvAllocs(t *testing.T) {
	if bufpool.Debug || raceOn {
		t.Skip("tankdebug hooks allocate, and the race detector's sync.Pool drops buffers, by design")
	}
	back := make(chan struct{}, 1)
	req, rep := keepAlive(1), keepAlive(2)
	var (
		keep atomic.Bool // set by the test, read on tb's read loop
		kept = make([]msg.Envelope, 0, 64)
	)
	var tb *Transport
	tb = New(2, nil, func(env msg.Envelope) {
		switch {
		case keep.Load():
			env.Retain()
			kept = append(kept, env)
		case env.Payload.Kind() == msg.KindControlReq:
			tb.Send(1, rep)
			return
		}
		back <- struct{}{}
	})
	go tb.Run()
	defer tb.Close()
	addr, err := tb.Listen(Loopback())
	if err != nil {
		t.Fatal(err)
	}
	ta := New(1, map[msg.NodeID]string{2: addr.String()}, func(msg.Envelope) { back <- struct{}{} })
	go ta.Run()
	defer ta.Close()
	roundTrip := func() {
		ta.Send(2, req)
		<-back
	}
	roundTrip()
	if got := testing.AllocsPerRun(500, roundTrip); got > 2 {
		t.Errorf("a KeepAlive round trip: %v allocs, want at most 2", got)
	}
	blocks := make([]msg.BlockVec, 8)
	for i := range blocks {
		blocks[i] = msg.BlockVec{Block: uint64(i + 1), Ver: 1}
	}
	for _, tc := range []struct {
		name   string
		m      msg.Message
		allocs float64
	}{
		{"a DiskReadRes frame", &msg.DiskReadRes{Req: 3, Data: make([]byte, 4096)}, 1},
		{"an 8-page DiskWriteV frame", &msg.DiskWriteV{Client: 1, Req: 4, Blocks: blocks, Data: make([]byte, 8*4096)}, 2},
	} {
		send := func() {
			ta.Send(2, tc.m)
			<-back
		}
		send()
		if got := testing.AllocsPerRun(500, send); got > tc.allocs {
			t.Errorf("%s: %v allocs, want at most %v", tc.name, got, tc.allocs)
		}
		meta, tail, err := msg.BinarySize(&msg.Envelope{From: 1, To: 2, Payload: tc.m})
		if err != nil {
			t.Fatal(err)
		}
		frame := 4 + meta + len(tail)
		var before, after runtime.MemStats
		keep.Store(true)
		runtime.ReadMemStats(&before)
		for range cap(kept) {
			send()
		}
		runtime.ReadMemStats(&after)
		keep.Store(false)
		perFrame := int(after.TotalAlloc-before.TotalAlloc) / cap(kept)
		for i := range kept {
			kept[i].Release()
		}
		kept = kept[:0]
		if perFrame > 2*frame+512 {
			t.Errorf("%s of %d bytes, kept by its handler, costs the receiver %d bytes, want at most twice the frame (and its message)",
				tc.name, frame, perFrame)
		}
	}
}

// BenchmarkExecutorSubmitHop is the same task queued for Run's goroutine
// and waited for: the two goroutine switches a Sync call used to pay
// around every operation, and a queued delivery still pays one of.
func BenchmarkExecutorSubmitHop(b *testing.B) {
	e := NewExecutor()
	go e.Run()
	defer e.Close()
	ran := make(chan struct{})
	task := func() { ran <- struct{}{} }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Submit(task)
		<-ran
	}
}

// BenchmarkTransportPingPong is a control message from one transport to
// another over loopback and one back: per op, two inline sends, two
// frames read and decoded, two handler tasks. It reports the reads each
// received frame cost, counted by the transports' own instruments.
func BenchmarkTransportPingPong(b *testing.B) {
	reg := stats.NewRegistry()
	back := make(chan struct{}, 1)
	req, rep := keepAlive(1), keepAlive(2)
	var tb *Transport
	tb = New(2, nil, func(msg.Envelope) { tb.Send(1, rep) })
	tb.Instrument(reg, "b.")
	go tb.Run()
	defer tb.Close()
	addr, err := tb.Listen(Loopback())
	if err != nil {
		b.Fatal(err)
	}
	ta := New(1, map[msg.NodeID]string{2: addr.String()}, func(msg.Envelope) { back <- struct{}{} })
	ta.Instrument(reg, "a.")
	go ta.Run()
	defer ta.Close()
	ta.Send(2, req)
	<-back
	reads := func() int64 { return reg.Gauge("a.reads").Value() + reg.Gauge("b.reads").Value() }
	before := reads()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ta.Send(2, req)
		<-back
	}
	b.StopTimer()
	b.ReportMetric(float64(reads()-before)/float64(2*b.N), "reads/frame")
}
