package wire

import (
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/stats"
)

// frameBytes returns env's frame as it goes on the wire.
func frameBytes(t testing.TB, env *msg.Envelope) []byte {
	t.Helper()
	var enc msg.Coder
	f, err := Encode(&enc, env)
	if err != nil {
		t.Fatal(err)
	}
	b := append(append([]byte(nil), f.head...), f.tail...)
	f.Release()
	return b
}

// write is a DiskWrite whose Req names it and whose data, n bytes long,
// carries the Req in its last byte.
func write(req int, n int) *msg.Envelope {
	data := make([]byte, n)
	if n > 0 {
		data[n-1] = byte(req)
	}
	return &msg.Envelope{From: 1, To: 2, Payload: &msg.DiskWrite{Client: 1, Req: msg.ReqID(req), Block: 7, Data: data}}
}

// served runs Serve on c and collects what it delivers: each DiskWrite's
// Req and data length, in order, on got; Serve's error on done.
func served(c *Codec) (got chan [2]int, done chan error) {
	got, done = make(chan [2]int, 1024), make(chan error, 1)
	go func() {
		done <- c.Serve(func(env *msg.Envelope) {
			w := env.Payload.(*msg.DiskWrite)
			got <- [2]int{int(w.Req), len(w.Data)}
			env.Release()
		})
	}()
	return got, done
}

// expectWrites waits for the DiskWrites reqs, each len bytes of data.
func expectWrites(t *testing.T, got chan [2]int, len int, reqs ...int) {
	t.Helper()
	for _, req := range reqs {
		select {
		case g := <-got:
			if g != [2]int{req, len} {
				t.Fatalf("delivered DiskWrite %d with %d bytes, want %d with %d", g[0], g[1], req, len)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("DiskWrite %d never delivered: Serve waits on a socket that has its bytes", req)
		}
	}
}

// TestServeFraming drives Serve with the ways frames meet reads: split
// across reads, many to a read, exactly one buffer, larger than the
// buffer, a byte at a time, and already read behind the hello. A frame
// whose bytes are all in the socket but which Serve does not deliver is a
// lost wake-up.
func TestServeFraming(t *testing.T) {
	if _, cb := codecPair(t); runtime.GOOS == "linux" && !cb.reportsQueue() {
		t.Fatal("a loopback TCP socket does not take TCP_INQ: Serve would fall back to Recv's blocking loop")
	}
	t.Run("split-across-writes", func(t *testing.T) {
		for _, at := range []int{2, 4, 20} { // in the length prefix, after it, in the body
			ca, cb := codecPair(t)
			got, _ := served(cb)
			b := frameBytes(t, write(at, 100))
			ca.conn.Write(b[:at])
			time.Sleep(20 * time.Millisecond)
			ca.conn.Write(b[at:])
			expectWrites(t, got, 100, at)
		}
	})
	t.Run("burst-of-64-in-one-writev", func(t *testing.T) {
		ca, cb := codecPair(t)
		var reads, frames stats.Gauge
		cb.Instrument(&reads, &frames)
		fs := make([]Frame, 64)
		reqs := make([]int, 64)
		for i := range fs {
			var err error
			if fs[i], err = Encode(&ca.enc, write(i, 8)); err != nil {
				t.Fatal(err)
			}
			reqs[i] = i
		}
		if err := ca.WriteFrames(fs); err != nil {
			t.Fatal(err)
		}
		for i := range fs {
			fs[i].Release()
		}
		got, _ := served(cb)
		expectWrites(t, got, 8, reqs...)
		// The read that brought the burst left the receive queue empty, and
		// Serve waits for the next readiness event instead of asking again.
		if r, f := reads.Value(), frames.Value(); f != 64 || r > 2 {
			t.Fatalf("%d frames in %d reads, want 64 in at most 2", f, r)
		}
	})
	t.Run("frame-fills-the-buffer", func(t *testing.T) {
		ca, cb := codecPair(t)
		over := len(frameBytes(t, write(1, 0)))
		exact := frameBytes(t, write(1, readBuf-over))
		if len(exact) != readBuf {
			t.Fatalf("frame is %d bytes, want %d", len(exact), readBuf)
		}
		// Behind it in the socket, a frame the first read cannot have asked
		// for: it arrives only if Serve reads again after a read that filled
		// all it asked for.
		got, _ := served(cb)
		ca.conn.Write(append(exact, frameBytes(t, write(2, readBuf-over))...))
		expectWrites(t, got, readBuf-over, 1, 2)
	})
	t.Run("300KiB-body", func(t *testing.T) {
		ca, cb := codecPair(t)
		got, _ := served(cb)
		for i := 1; i <= 3; i++ {
			if err := ca.Send(write(i, 300<<10)); err != nil {
				t.Fatal(err)
			}
		}
		expectWrites(t, got, 300<<10, 1, 2, 3)
	})
	t.Run("one-byte-per-write", func(t *testing.T) {
		ca, cb := codecPair(t)
		got, _ := served(cb)
		for _, c := range frameBytes(t, write(9, 30)) {
			ca.conn.Write([]byte{c})
		}
		expectWrites(t, got, 30, 9)
	})
	t.Run("control-frames-in-the-buffer", func(t *testing.T) {
		// Frames that alias nothing are decoded where they land: a burst
		// of them runs past the buffer's end, so one straddles it and
		// moves to the front, and one is larger than the buffer and takes
		// a pooled body. Each must arrive whole, in order, and keep its
		// path after the bytes it came from are reused.
		ca, cb := codecPair(t)
		lookup := func(req, n int) *msg.Envelope {
			path := strings.Repeat(string(rune('a'+req%26)), n)
			return &msg.Envelope{From: 1, To: 2, Payload: &msg.Lookup{ReqHeader: msg.ReqHeader{Client: 1, Req: msg.ReqID(req)}, Path: path}}
		}
		sizes := make([]int, 300, 302)
		for i := range sizes {
			sizes[i] = 300
		}
		var burst []byte
		var want []*msg.Lookup
		for i, n := range append(sizes, readBuf+100, 7) {
			env := lookup(i, n)
			burst = append(burst, frameBytes(t, env)...)
			want = append(want, env.Payload.(*msg.Lookup))
		}
		got := make(chan *msg.Lookup, len(want))
		go cb.Serve(func(env *msg.Envelope) {
			got <- env.Payload.(*msg.Lookup)
			env.Release()
		})
		ca.conn.Write(burst)
		var kept []*msg.Lookup
		for i, w := range want {
			select {
			case g := <-got:
				if g.Req != w.Req || g.Path != w.Path {
					t.Fatalf("frame %d: Lookup %d with a %d-byte path, want %d with %d", i, g.Req, len(g.Path), w.Req, len(w.Path))
				}
				kept = append(kept, g)
			case <-time.After(5 * time.Second):
				t.Fatalf("Lookup %d never delivered", i)
			}
		}
		for i, g := range kept {
			if g.Path != want[i].Path {
				t.Fatalf("Lookup %d's path changed after delivery", i)
			}
		}
	})
	t.Run("frames-behind-the-hello", func(t *testing.T) {
		ca, cb := codecPair(t)
		b := []byte{0, 0, 0, 42}
		for i := 1; i <= 3; i++ {
			b = append(b, frameBytes(t, write(i, 16))...)
		}
		ca.conn.Write(b)
		if from, err := cb.RecvHello(); err != nil || from != 42 {
			t.Fatalf("hello = %v %v", from, err)
		}
		if cb.w-cb.r != len(b)-4 {
			t.Skipf("the hello's read took %d of the %d bytes behind it; nothing to prove", cb.w-cb.r, len(b)-4)
		}
		got, _ := served(cb)
		expectWrites(t, got, 16, 1, 2, 3)
	})
}

// TestServeEndsLikeRecv: a clean close at a frame boundary ends Serve with
// io.EOF, as it ends Recv.
func TestServeEndsLikeRecv(t *testing.T) {
	ca, cb := codecPair(t)
	got, done := served(cb)
	ca.Send(write(1, 10))
	expectWrites(t, got, 10, 1)
	ca.Close()
	select {
	case err := <-done:
		if !errors.Is(err, io.EOF) {
			t.Fatalf("Serve ended with %v, want io.EOF", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve never saw the peer close")
	}
}

// TestServeSeesACloseBehindTheLastFrame: the peer sends a frame and closes
// while Serve is still delivering the one before. The read that brings the
// last frame comes back short and takes the FIN with it, and both arrivals'
// readiness events were spent while deliver ran: only the kernel's report
// that the FIN is in (TCP_INQ) makes Serve read again, and so see the end
// rather than wait for an event that never comes.
func TestServeSeesACloseBehindTheLastFrame(t *testing.T) {
	ca, cb := codecPair(t)
	inDeliver, release := make(chan struct{}), make(chan struct{})
	var got []int
	done := make(chan error, 1)
	go func() {
		done <- cb.Serve(func(env *msg.Envelope) {
			got = append(got, int(env.Payload.(*msg.DiskWrite).Req))
			env.Release()
			if len(got) == 1 {
				close(inDeliver)
				<-release
			}
		})
	}()
	ca.Send(write(1, 10))
	<-inDeliver
	ca.Send(write(2, 10))
	ca.Close()
	time.Sleep(50 * time.Millisecond) // both arrive while deliver runs
	close(release)
	select {
	case err := <-done:
		if !errors.Is(err, io.EOF) || len(got) != 2 {
			t.Fatalf("Serve delivered %v and ended with %v, want [1 2] and io.EOF", got, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve never saw the close that came with the last frame")
	}
}

// TestServeNoStall: 20 000 request/reply round trips between two served
// codecs, each frame of a random size from an empty DiskWrite to 300 KiB
// (log-uniform, so most are small and some span many reads). A lost
// wake-up stops the exchange: ten seconds without a reply fail the test.
func TestServeNoStall(t *testing.T) {
	const n = 20000
	ca, cb := codecPair(t)
	rng := rand.New(rand.NewSource(1))
	sizes := make([]int, 2*n)
	for i := range sizes {
		sizes[i] = int(math.Exp(rng.Float64()*math.Log(300<<10+1))) - 1
	}
	go cb.Serve(func(env *msg.Envelope) {
		req := int(env.Payload.(*msg.DiskWrite).Req)
		env.Release()
		cb.Send(write(req, sizes[2*req+1]))
	})
	replies, done := served(ca)
	stall := time.NewTimer(10 * time.Second)
	defer stall.Stop()
	for i := 0; i < n; i++ {
		if err := ca.Send(write(i, sizes[2*i])); err != nil {
			t.Fatal(err)
		}
		select {
		case g := <-replies:
			if g != [2]int{i, sizes[2*i+1]} {
				t.Fatalf("round trip %d: reply %d with %d bytes, want %d bytes", i, g[0], g[1], sizes[2*i+1])
			}
			stall.Reset(10 * time.Second)
		case err := <-done:
			t.Fatalf("round trip %d: Serve ended: %v", i, err)
		case <-stall.C:
			t.Fatalf("stalled at round trip %d of %d", i, n)
		}
	}
}

// TestCloseWhileServing: Close ends Serve — from inside deliver, where
// closing the descriptor outright would wait forever for the read deliver
// runs in, and from another goroutine while Serve waits — and Serve closes
// the descriptor on its way out, so nothing leaks. The peer sees the end.
func TestCloseWhileServing(t *testing.T) {
	for _, tc := range []struct {
		name   string
		inside bool
	}{{"from-inside-deliver", true}, {"from-another-goroutine", false}} {
		t.Run(tc.name, func(t *testing.T) {
			ca, cb := codecPair(t)
			done := make(chan error, 1)
			go func() {
				done <- cb.Serve(func(env *msg.Envelope) {
					env.Release()
					if tc.inside {
						cb.Close()
					}
				})
			}()
			ca.Send(write(1, 10))
			if !tc.inside {
				time.Sleep(20 * time.Millisecond) // Serve delivers, then waits
				cb.Close()
			}
			select {
			case err := <-done:
				if !errors.Is(err, net.ErrClosed) {
					t.Fatalf("Serve ended with %v, want net.ErrClosed", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Serve never returned after Close")
			}
			if err := cb.raw.Control(func(uintptr) {}); err == nil {
				t.Fatal("the descriptor is still open after Serve returned")
			}
			ca.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if n, err := ca.conn.Read(make([]byte, 1)); n != 0 || err == nil {
				t.Fatalf("the peer reads %d bytes, %v: the connection is still open", n, err)
			}
		})
	}
}

// TestServeWithoutARawConn: a connection with no descriptor (net.Pipe) is
// served by Recv's blocking loop, with the same frames and the same end.
func TestServeWithoutARawConn(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := newCodec(a), newCodec(b)
	got, done := served(cb)
	go func() {
		for i := 1; i <= 3; i++ {
			ca.Send(write(i, 100))
		}
		ca.Close()
	}()
	expectWrites(t, got, 100, 1, 2, 3)
	select {
	case err := <-done:
		if !errors.Is(err, io.EOF) {
			t.Fatalf("Serve ended with %v, want io.EOF", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve never saw the pipe close")
	}
}

// TestServeRefusesAClosedCodec: Serve on a codec already closed returns at
// once rather than reading.
func TestServeRefusesAClosedCodec(t *testing.T) {
	_, cb := codecPair(t)
	cb.Close()
	if err := cb.Serve(func(env *msg.Envelope) { env.Release() }); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Serve on a closed codec: %v, want net.ErrClosed", err)
	}
}

// BenchmarkServePages serves 8-page DiskWriteV frames over loopback
// through Serve and reports, per frame, the page bytes its message does
// not find in the buffer the connection read them into: the bytes the
// codec copied to hand the message its data.
func BenchmarkServePages(b *testing.B) {
	ca, cb := codecPair(b)
	env := pages(1, 8, 0x5a)
	var copied int
	read := cb.buf // where the next frame lands; deliver runs on Serve's goroutine
	done := make(chan struct{})
	go cb.Serve(func(got *msg.Envelope) {
		m := got.Payload.(*msg.DiskWriteV)
		if !within(m.Data, read) {
			copied += len(m.Data)
		}
		read = cb.buf
		if got.Release(); m.Req == msg.ReqID(b.N) {
			close(done)
		}
	})
	b.SetBytes(int64(len(frameBytes(b, env))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		env.Payload.(*msg.DiskWriteV).Req = msg.ReqID(i)
		if err := ca.Send(env); err != nil {
			b.Fatal(err)
		}
	}
	<-done
	b.StopTimer()
	b.ReportMetric(float64(copied)/float64(b.N), "copied_B/frame")
	ca.Close()
	cb.Close()
}
