package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/bufpool"
	"repro/internal/msg"
)

// goldenFrames reads the frame body of every wire type from the msg
// package's golden file, in name order.
func goldenFrames(tb testing.TB) [][]byte {
	tb.Helper()
	f, err := os.Open("../msg/testdata/frames.golden")
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	var names []string
	frames := map[string][]byte{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, hexFrame, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		b, err := hex.DecodeString(hexFrame)
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		names = append(names, name)
		frames[name] = b
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}
	sort.Strings(names)
	out := make([][]byte, len(names))
	for i, name := range names {
		out[i] = frames[name]
	}
	return out
}

// prefixed returns bodies as they follow each other on a connection:
// each behind its length prefix.
func prefixed(bodies ...[]byte) []byte {
	var b []byte
	for _, body := range bodies {
		b = binary.BigEndian.AppendUint32(b, uint32(len(body)))
		b = append(b, body...)
	}
	return b
}

// chunkConn is a connection whose reads bring stream in the sizes cuts
// names, one size per read in turn (a byte b is b+1 bytes), or as much as
// each read asks for when cuts is empty; then io.EOF.
type chunkConn struct {
	stream, cuts []byte
	next         int
}

func (c *chunkConn) Read(p []byte) (int, error) {
	if len(c.stream) == 0 {
		return 0, io.EOF
	}
	n := len(p)
	if len(c.cuts) > 0 {
		n = min(n, int(c.cuts[c.next%len(c.cuts)])+1)
		c.next++
	}
	n = copy(p, c.stream[:min(n, len(c.stream))])
	c.stream = c.stream[n:]
	return n, nil
}

func (c *chunkConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *chunkConn) Close() error                     { return nil }
func (c *chunkConn) LocalAddr() net.Addr              { return nil }
func (c *chunkConn) RemoteAddr() net.Addr             { return nil }
func (c *chunkConn) SetDeadline(time.Time) error      { return nil }
func (c *chunkConn) SetReadDeadline(time.Time) error  { return nil }
func (c *chunkConn) SetWriteDeadline(time.Time) error { return nil }

// reencode returns env's frame body as the encoder writes it: two
// envelopes are the same envelope when their bodies are the same bytes.
func reencode(tb testing.TB, env *msg.Envelope) []byte {
	tb.Helper()
	meta, tail, err := msg.BinarySize(env)
	if err != nil {
		tb.Fatalf("a decoded %T does not size: %v", env.Payload, err)
	}
	body := make([]byte, meta, meta+len(tail))
	if err := msg.EncodeBinary(body, env); err != nil {
		tb.Fatalf("a decoded %T does not encode: %v", env.Payload, err)
	}
	return append(body, tail...)
}

// badRunFrames are three grants of a block map the decoder refuses: one
// with an empty run, one with a run that passes the last block number,
// and one of more blocks than a uint32 counts.
func badRunFrames(tb testing.TB) [][]byte {
	var out [][]byte
	for _, m := range []msg.Extents{
		{{Disk: 1000, Start: 9, Len: 4}, {Disk: 1001, Start: 9, Len: 0}},
		{{Disk: 1000, Start: 1<<64 - 3, Len: 4}},
		{{Disk: 1000, Start: 0, Len: 1<<32 - 1}, {Disk: 1001, Start: 0, Len: 1}},
	} {
		env := &msg.Envelope{From: 1, To: 10, Payload: &msg.Reply{Client: 10, Req: 7, Status: msg.ACK,
			Body: msg.LockRes{Mode: msg.LockShared, HaveMap: true, Attr: msg.Attr{Ino: 2}, Map: m}}}
		body := reencode(tb, env)
		if _, err := msg.DecodeBinary(body); !errors.Is(err, msg.ErrCorruptFrame) {
			tb.Fatalf("map %v decodes: %v", m, err)
		}
		out = append(out, body)
	}
	return out
}

// FuzzCodecFrames drives the codec's frame parser — not just the decoder
// FuzzDecodeBinary covers — with length-prefixed frame bodies cut at
// read boundaries the fuzzer chooses. It must never panic, and each
// frame must decode to the envelope the decoder alone makes of its body,
// whether it arrived whole, straddled a read, or was larger than the
// codec's buffer; the stream must end as its bytes do — io.EOF at a frame
// boundary, an error anywhere else.
func FuzzCodecFrames(f *testing.F) {
	golden := goldenFrames(f)
	all := prefixed(golden...)
	f.Add(all, []byte{})
	f.Add(all, []byte{0})
	f.Add(all, []byte{12, 200, 3, 40})
	for _, body := range golden {
		f.Add(prefixed(body, body), []byte{5})
	}
	f.Add(declaredHead(f), []byte{})
	for _, bad := range badRunFrames(f) {
		f.Add(prefixed(golden[0], bad, golden[0]), []byte{7})
	}
	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		// What the decoder alone makes of the stream: each body's
		// re-encoding, up to the first damage.
		var want [][]byte
		clean := true
		for rest := stream; len(rest) > 0; {
			if len(rest) < 4 {
				clean = false
				break
			}
			n := int(binary.BigEndian.Uint32(rest))
			if n < msg.HeaderSize || n > MaxFrame || len(rest)-4 < n {
				clean = false
				break
			}
			env, err := msg.DecodeBinary(rest[4 : 4+n])
			if err != nil {
				clean = false
				break
			}
			want = append(want, reencode(t, env))
			rest = rest[4+n:]
		}
		// Each run's buffer comes from the pool unzeroed, and goes back
		// when the run ends, so the next run of its class finds in it what
		// this one left: a codec must not read what its reads did not
		// bring.
		for _, run := range []struct {
			name string
			size int
			cuts []byte
		}{
			{"whole", readBuf, nil},
			{"straddled", readBuf, cuts},
			{"larger-than-the-buffer", 4 + msg.HeaderSize + 3, cuts},
		} {
			c := &Codec{conn: &chunkConn{stream: stream, cuts: run.cuts}, buf: bufpool.Get(run.size)}
			for i := 0; ; i++ {
				env, err := c.Recv()
				if err != nil {
					switch {
					case i < len(want):
						t.Fatalf("%s: frame %d of %d: %v", run.name, i, len(want), err)
					case clean && err != io.EOF:
						t.Fatalf("%s: a stream of %d whole frames ended with %v", run.name, i, err)
					case !clean && err == io.EOF:
						t.Fatalf("%s: a damaged stream ended cleanly after %d frames", run.name, i)
					}
					break
				}
				if i >= len(want) {
					t.Fatalf("%s: frame %d decoded from a stream of %d", run.name, i, len(want))
				}
				if got := reencode(t, env); !bytes.Equal(got, want[i]) {
					t.Fatalf("%s: frame %d decoded to\n %x\nwant\n %x", run.name, i, got, want[i])
				}
				env.Release()
			}
			bufpool.Put(c.buf)
		}
	})
}

// TestRecvOwnership: Recv's envelope is the caller's. Two successive
// results share no storage, and the first survives the second's decode —
// which, for frames decoded in the connection buffer, reuses the bytes
// the first came from.
func TestRecvOwnership(t *testing.T) {
	first := &msg.Envelope{From: 3, To: 9, Payload: &msg.Lookup{
		ReqHeader: msg.ReqHeader{Client: 3, Req: 1}, Path: "/first/path"}}
	second := &msg.Envelope{From: 3, To: 9, Payload: &msg.Readdir{
		ReqHeader: msg.ReqHeader{Client: 3, Req: 2}, Ino: 7}}
	want1, want2 := reencode(t, first), reencode(t, second)
	stream := prefixed(want1, want2)
	for _, cuts := range [][]byte{nil, {0}, {byte(len(want1) + 5)}} {
		c := newCodec(&chunkConn{stream: stream, cuts: cuts})
		a, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if a == b || a.Payload == b.Payload {
			t.Fatalf("two Recv results share storage: %p %p", a, b)
		}
		if got := reencode(t, a); !bytes.Equal(got, want1) {
			t.Fatalf("the first result changed when the second arrived:\n %x\nwant\n %x", got, want1)
		}
		if got := reencode(t, b); !bytes.Equal(got, want2) {
			t.Fatalf("second result:\n %x\nwant\n %x", got, want2)
		}
		if _, err := c.Recv(); !errors.Is(err, io.EOF) {
			t.Fatalf("after both frames: %v, want io.EOF", err)
		}
	}
}

// declaredHead is the first 17 bytes of a page frame whose length prefix
// declares MaxFrame bytes: its header and the start of its body.
func declaredHead(tb testing.TB) []byte {
	tb.Helper()
	var enc msg.Coder
	f, err := Encode(&enc, &msg.Envelope{From: 1, To: 2, Payload: &msg.DiskWriteV{
		Client: 1, Req: 1, Blocks: []msg.BlockVec{{Block: 1}}, Data: make([]byte, 4096)}})
	if err != nil {
		tb.Fatal(err)
	}
	head := append([]byte(nil), f.head[:4+msg.HeaderSize+4]...)
	f.Release()
	binary.BigEndian.PutUint32(head, MaxFrame)
	return head
}

// TestDeclaredFrameCostsWhatArrives: a peer that declares a MaxFrame page
// frame and then stalls makes the receiver hold about what it sent, not
// what it declared. Up to bufpool.MaxClass a frame gets a buffer of its
// class when its head arrives; beyond it the buffer grows only as the
// bytes come, so the codec holds at most that buffer plus twice what the
// peer sent.
func TestDeclaredFrameCostsWhatArrives(t *testing.T) {
	head := declaredHead(t)
	conn := &chunkConn{}
	c := newCodec(conn)
	heap := func() int {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // the second empties the pools' victim caches
		runtime.ReadMemStats(&ms)
		return int(ms.HeapAlloc)
	}
	chunks := [][]byte{head, make([]byte, 300<<10), make([]byte, 1<<20)}
	base, sent := heap(), 0
	for _, chunk := range chunks {
		conn.stream = chunk
		sent += len(chunk)
		for len(conn.stream) > 0 {
			if err := c.fill(); err != nil {
				t.Fatal(err)
			}
			if ok, err := c.next(); ok || err != nil {
				t.Fatalf("a frame of %d bytes decoded from %d: %v", MaxFrame, sent, err)
			}
		}
		// The slack is the read buffer the codec started with, which a
		// larger one may have replaced since the base was taken.
		if held, bound := heap()-base, bufpool.MaxClass+2*sent+readBuf; held > bound {
			t.Fatalf("after %d bytes of a declared %d-byte frame the receiver holds %d bytes more, want at most %d",
				sent, MaxFrame, held, bound)
		}
	}
	runtime.KeepAlive(c)
}

// pages is an n-page DiskWriteV whose Req names it and whose every data
// byte is fill.
func pages(req, n int, fill byte) *msg.Envelope {
	blocks := make([]msg.BlockVec, n)
	for i := range blocks {
		blocks[i] = msg.BlockVec{Block: uint64(i + 1), Ver: 1}
	}
	return &msg.Envelope{From: 1, To: 2, Payload: &msg.DiskWriteV{
		Client: 1, Req: msg.ReqID(req), Blocks: blocks, Data: bytes.Repeat([]byte{fill}, n*4096)}}
}

// within reports whether p begins inside buf's backing array.
func within(p, buf []byte) bool {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	at := uintptr(unsafe.Pointer(unsafe.SliceData(p)))
	return at >= lo && at < lo+uintptr(cap(buf))
}

// TestPageFrameLeavesInItsBuffer: an 8-page DiskWriteV takes the buffer
// it landed in with it, a buffer at most twice its frame, and the
// connection reads on into another, where the bytes that followed the
// frame were moved. While the message holds its buffer, no frame that
// follows touches its bytes; at its last Release the buffer goes back to
// the pool, which a tankdebug build shows by poisoning it.
func TestPageFrameLeavesInItsBuffer(t *testing.T) {
	first := reencode(t, pages(1, 8, 0x11))
	stream := prefixed(first, reencode(t, pages(2, 8, 0x22)), reencode(t, &msg.Envelope{From: 1, To: 2,
		Payload: &msg.Lookup{ReqHeader: msg.ReqHeader{Client: 1, Req: 3}, Path: "/p"}}), reencode(t, pages(4, 8, 0x44)))
	c := newCodec(&chunkConn{stream: stream})
	landed := c.buf
	env, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	data := env.Payload.(*msg.DiskWriteV).Data
	if !within(data, landed) || within(c.buf, landed) {
		t.Fatal("the page frame was copied out of the buffer it landed in")
	}
	if frame := 4 + len(first); cap(landed) > 2*frame {
		t.Fatalf("a %d-byte frame holds a buffer of %d", frame, cap(landed))
	}
	for i := 2; i <= 4; i++ {
		next, err := c.Recv()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		next.Release()
	}
	if _, err := c.Recv(); err != io.EOF {
		t.Fatalf("after four frames: %v, want io.EOF", err)
	}
	if !bytes.Equal(data, bytes.Repeat([]byte{0x11}, len(data))) {
		t.Fatal("the connection read into the buffer a page message still holds")
	}
	env.Retain()
	env.Release()
	if data[0] != 0x11 {
		t.Fatal("a Release that was not the last gave the buffer back")
	}
	env.Release()
	if bufpool.Debug && !bytes.Equal(landed[:cap(landed)], bytes.Repeat([]byte{0xDB}, cap(landed))) {
		t.Fatal("the last Release did not poison the buffer it gave back")
	}
}
