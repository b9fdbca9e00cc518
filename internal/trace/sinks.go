package trace

import (
	"encoding/json"
	"io"
	"sync"
)

// Ring is a fixed-capacity in-memory sink that keeps the most recent
// events: the default instrument for tests and for the live server's
// on-signal dump. It is safe for concurrent Record/Events.
type Ring struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	full  bool
	total uint64
}

// NewRing creates a ring keeping up to capacity events (min 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Record stores the event, evicting the oldest when full.
func (r *Ring) Record(e Event) {
	r.mu.Lock()
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
	if r.next == 0 {
		r.full = true
	}
	r.total++
	r.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() Stream {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append(Stream(nil), r.buf[:r.next]...)
	}
	out := make(Stream, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Total returns how many events were ever recorded (≥ len(Events())).
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// JSONL writes each event as one JSON object per line — the live
// deployment's durable trace format (cmd/tankd -trace). It is safe for
// concurrent use; write errors latch and silence the sink rather than
// disturb the protocol.
type JSONL struct {
	mu   sync.Mutex
	enc  *json.Encoder
	dead bool
}

// NewJSONL creates a JSONL sink on w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{enc: json.NewEncoder(w)}
}

// Record encodes the event as one line.
func (j *JSONL) Record(e Event) {
	j.mu.Lock()
	if !j.dead {
		if err := j.enc.Encode(e); err != nil {
			j.dead = true
		}
	}
	j.mu.Unlock()
}

// NewLogf adapts a printf-style logger into a sink — the one debug
// logger there is, transport diagnostics included. Every event renders
// through Event.String, so a plain log.Printf gives a readable, totally
// ordered protocol narrative.
func NewLogf(logf func(format string, args ...any)) Sink {
	return SinkFunc(func(e Event) { logf("trace: %s", e) })
}
