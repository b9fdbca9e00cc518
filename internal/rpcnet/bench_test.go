package rpcnet

import (
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/msg"
	"repro/internal/stats"
)

var sinkAttr msg.Attr

// BenchmarkSyncHit is a ClientNode.Sync Lookup the name cache answers: what
// a synchronous caller pays for an operation that needs nobody else. It
// runs in the caller's own executor turn, so it must arm no timeout timer
// and send nothing. The lease and the retry interval are long enough that
// no protocol timer fires in the timed loop — neither a keep-alive nor
// the retransmission queue's timer, which the set-up's requests left
// armed (DESIGN §23.1): a hit that arrives while such a task holds the
// executor rightly waits for it, timer armed, and that is the protocol's
// cost, not the hit's.
func BenchmarkSyncHit(b *testing.B) {
	cfg := liveCore()
	cfg.Tau = time.Hour
	cfg.RetryInterval = time.Hour
	lc := startLiveCfg(b, 1, cfg)
	cn := lc.clients[0]
	if err := cn.Start(5 * time.Second); err != nil {
		b.Fatal(err)
	}
	fs := cn.Sync(5 * time.Second)
	if _, err := fs.Create("/d", true); err != nil {
		b.Fatal(err)
	}
	if _, err := fs.Create("/d/f", false); err != nil {
		b.Fatal(err)
	}
	if _, err := fs.Lookup("/d/f"); err != nil { // the miss that fills the cache
		b.Fatal(err)
	}
	clk := newPendingClock()
	cn.tmo = clk
	hits := cn.Reg.Counter("client.n10.names.hits")
	before := hits.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attr, err := fs.Lookup("/d/f")
		if err != nil {
			b.Fatal(err)
		}
		sinkAttr = attr
	}
	b.StopTimer()
	if got := hits.Value() - before; got != uint64(b.N) {
		b.Fatalf("%d of %d lookups were answered by the name cache", got, b.N)
	}
	armed, _ := clk.counts()
	b.ReportMetric(float64(armed)/float64(b.N), "timers/op")
	if armed != 0 {
		b.Fatalf("%d timeout timers armed for %d hits", armed, b.N)
	}
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
