package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/msg"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Type: EvRenew})
	tr.Attach(NewRing(4))
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
}

func TestSinklessTracerDiscards(t *testing.T) {
	tr := New()
	if tr.Enabled() {
		t.Fatal("sink-less tracer reports enabled")
	}
	tr.Emit(Event{Type: EvRenew})
	r := NewRing(4)
	tr.Attach(r)
	if !tr.Enabled() {
		t.Fatal("tracer with sink reports disabled")
	}
	tr.Emit(Event{Type: EvExpire})
	evs := r.Events()
	if len(evs) != 1 || evs[0].Type != EvExpire {
		t.Fatalf("events = %v", evs)
	}
	// Seq keeps counting even while discarded? No: discarded events get
	// no sequence number — the stream the sinks see is gapless.
	if evs[0].Seq != 1 {
		t.Fatalf("first recorded seq = %d, want 1", evs[0].Seq)
	}
}

func TestSeqTotalOrderUnderConcurrency(t *testing.T) {
	r := NewRing(10000)
	tr := New(r)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Emit(Event{Type: EvRenew, Node: msg.NodeID(node)})
			}
		}(g + 1)
	}
	wg.Wait()
	evs := r.Events()
	if len(evs) != 4000 {
		t.Fatalf("recorded %d events, want 4000", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Fatalf("seq[%d] = %d: not gapless/ordered", i, e.Seq)
		}
	}
}

func TestRingEviction(t *testing.T) {
	r := NewRing(3)
	tr := New(r)
	for i := 0; i < 5; i++ {
		tr.Emit(Event{Type: EvKeepAlive})
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("ring kept %d, want 3", len(evs))
	}
	if evs[0].Seq != 3 || evs[2].Seq != 5 {
		t.Fatalf("ring kept seqs %d..%d, want 3..5", evs[0].Seq, evs[2].Seq)
	}
	if r.Total() != 5 {
		t.Fatalf("total = %d, want 5", r.Total())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewJSONL(&buf))
	tr.Emit(Event{Type: EvPhase, Node: 10, Epoch: 2, From: "valid", To: "renewal"})
	tr.Emit(Event{Type: EvStealArmed, Node: 1, Peer: 10})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d: %q", len(lines), buf.String())
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &m); err != nil {
		t.Fatal(err)
	}
	if m["type"] != "phase" || m["from"] != "valid" || m["to"] != "renewal" {
		t.Fatalf("decoded = %v", m)
	}
	if m["epoch"].(float64) != 2 {
		t.Fatalf("epoch = %v", m["epoch"])
	}
}

func TestLogfSink(t *testing.T) {
	var got []string
	tr := New(NewLogf(func(format string, args ...any) {
		got = append(got, format)
	}))
	tr.Emit(Event{Type: EvFence, Node: 1, Peer: 10, Epoch: 2})
	if len(got) != 1 {
		t.Fatalf("logf called %d times", len(got))
	}
}

func TestStreamQueriesAndAssertions(t *testing.T) {
	s := Stream{
		{Seq: 1, Node: 10, Type: EvPhase, From: "none", To: "valid"},
		{Seq: 2, Node: 10, Type: EvPhase, From: "valid", To: "renewal"},
		{Seq: 3, Node: 10, Type: EvKeepAlive},
		{Seq: 4, Node: 10, Type: EvPhase, From: "renewal", To: "suspect"},
		{Seq: 5, Node: 10, Type: EvExpire},
		{Seq: 6, Node: 1, Type: EvStealFired, Peer: 10},
	}
	if n := s.Count(ByNode(10)); n != 5 {
		t.Fatalf("Count(node 10) = %d", n)
	}
	if err := s.Precedes(
		And(ByNode(10), ByType(EvExpire)),
		And(ByNode(1), ByType(EvStealFired))); err != nil {
		t.Fatalf("Precedes: %v", err)
	}
	if err := s.Precedes(ByType(EvStealFired), ByType(EvExpire)); err == nil {
		t.Fatal("reversed Precedes passed")
	}
	if err := s.Precedes(ByType(EvRenew), ByType(EvExpire)); err == nil {
		t.Fatal("missing antecedent passed")
	}
	if err := s.None(ByType(EvNACK)); err != nil {
		t.Fatalf("None: %v", err)
	}
	if err := s.None(ByType(EvKeepAlive)); err == nil {
		t.Fatal("None missed a keep-alive")
	}
	phases := s.PhaseSequence(10)
	if !HasSubsequence(phases, []string{"valid", "renewal", "suspect"}) {
		t.Fatalf("phases = %v", phases)
	}
	if HasSubsequence(phases, []string{"suspect", "valid"}) {
		t.Fatal("out-of-order subsequence accepted")
	}
}

func TestEventString(t *testing.T) {
	e := Event{Seq: 7, Node: 10, Type: EvPhase, From: "valid", To: "renewal", Epoch: 3}
	if s := e.String(); !strings.Contains(s, "valid→renewal") || !strings.Contains(s, "epoch=3") {
		t.Fatalf("String = %q", s)
	}
}
