package wire

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"

	"repro/internal/msg"
)

func pipe(t testing.TB) (a, b net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := l.Accept()
		ch <- res{c, err}
	}()
	dialer, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() { dialer.Close(); r.c.Close() })
	return dialer, r.c
}

// codecPair negotiates a connection with Dial/Accept and returns both
// ends, exactly as the transport does it.
func codecPair(t testing.TB) (dialed, accepted *Codec) {
	t.Helper()
	a, b := pipe(t)
	type res struct {
		c   *Codec
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := Accept(b)
		ch <- res{c, err}
	}()
	ca, err := Dial(a, Binary)
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	return ca, r.c
}

// oneCodec runs fn as the subtest "binary". These tests looped over two
// codecs until gob was retired; the subtest name is how CI history knows
// the half that remains.
func oneCodec(t *testing.T, fn func(t *testing.T)) { t.Run("binary", fn) }

func TestHelloHandshake(t *testing.T) {
	oneCodec(t, func(t *testing.T) {
		ca, cb := codecPair(t)
		go ca.SendHello(42)
		from, err := cb.RecvHello()
		if err != nil || from != 42 {
			t.Fatalf("hello = %v %v", from, err)
		}
	})
}

func TestHelloRejectsZeroNode(t *testing.T) {
	oneCodec(t, func(t *testing.T) {
		ca, cb := codecPair(t)
		go ca.SendHello(msg.None)
		if _, err := cb.RecvHello(); err == nil {
			t.Fatal("zero node id accepted")
		}
	})
}

func TestEnvelopeStream(t *testing.T) {
	oneCodec(t, func(t *testing.T) {
		ca, cb := codecPair(t)
		go func() {
			for i := 0; i < 10; i++ {
				ca.Send(&msg.Envelope{From: 1, To: 2, Payload: &msg.GetAttr{
					ReqHeader: msg.ReqHeader{Client: 1, Req: msg.ReqID(i)},
					Ino:       msg.ObjectID(i),
				}})
			}
		}()
		for i := 0; i < 10; i++ {
			env, err := cb.Recv()
			if err != nil {
				t.Fatal(err)
			}
			ga := env.Payload.(*msg.GetAttr)
			if ga.Req != msg.ReqID(i) || ga.Ino != msg.ObjectID(i) {
				t.Fatalf("frame %d out of order: %+v", i, ga)
			}
			env.Release()
		}
	})
}

func TestRecvAfterCloseErrors(t *testing.T) {
	oneCodec(t, func(t *testing.T) {
		ca, cb := codecPair(t)
		ca.Close()
		if _, err := cb.Recv(); err == nil {
			t.Fatal("recv on closed peer succeeded")
		}
		if cb.RemoteAddr() == nil {
			t.Fatal("remote addr missing")
		}
	})
}

// TestAcceptRejectsBadPreamble: any first byte but this revision's 0x41
// — another version, another codec, the retired gob codec 0 — produces
// ErrBadFrame, not a hang or a panic.
func TestAcceptRejectsBadPreamble(t *testing.T) {
	cases := []struct {
		name string
		pre  byte
	}{
		{"version-zero", 0x00},
		{"future-version", 0xf1},
		{"previous-revision", 0x31},
		{"unknown-codec", 0x2e},
		{"retired-gob-codec", 0x20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := pipe(t)
			type res struct {
				c   *Codec
				err error
			}
			ch := make(chan res, 1)
			go func() {
				c, err := Accept(b)
				ch <- res{c, err}
			}()
			if _, err := a.Write([]byte{tc.pre}); err != nil {
				t.Fatal(err)
			}
			r := <-ch
			if !errors.Is(r.err, ErrBadFrame) {
				t.Fatalf("err = %v, want ErrBadFrame", r.err)
			}
		})
	}
}

// rawBinaryPeer dials a binary-codec connection but keeps the raw conn,
// so tests can write corrupt frames by hand.
func rawBinaryPeer(t *testing.T) (raw net.Conn, peer *Codec) {
	t.Helper()
	a, b := pipe(t)
	type res struct {
		c   *Codec
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := Accept(b)
		ch <- res{c, err}
	}()
	if _, err := a.Write([]byte{preamble}); err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	return a, r.c
}

// TestBinaryFramingCorruption drives the binary codec's two readers, Recv
// and Serve, with every flavor of damaged frame. Each must produce an
// error wrapping ErrBadFrame (or a plain EOF for a clean close) — never a
// panic, never a giant allocation, never a hang.
func TestBinaryFramingCorruption(t *testing.T) {
	writeLen := func(n uint32) []byte {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], n)
		return b[:]
	}
	readers := []struct {
		name     string
		firstErr func(*Codec) error
	}{
		{"Recv", func(c *Codec) error { _, err := c.Recv(); return err }},
		{"Serve", func(c *Codec) error {
			return c.Serve(func(env *msg.Envelope) {
				env.Release()
				t.Errorf("Serve delivered %T from a damaged stream", env.Payload)
			})
		}},
	}
	check := func(t *testing.T, send func(raw net.Conn), want error) {
		t.Helper()
		for _, r := range readers {
			raw, peer := rawBinaryPeer(t)
			send(raw)
			if err := r.firstErr(peer); !errors.Is(err, want) {
				t.Fatalf("%s: err = %v, want %v", r.name, err, want)
			}
		}
	}
	t.Run("oversized-length-prefix", func(t *testing.T) {
		check(t, func(raw net.Conn) { raw.Write(writeLen(MaxFrame + 1)) }, ErrBadFrame)
	})
	t.Run("undersized-length-prefix", func(t *testing.T) {
		check(t, func(raw net.Conn) { raw.Write(writeLen(4)) }, ErrBadFrame) // header alone needs 9 bytes
	})
	t.Run("truncated-body", func(t *testing.T) {
		check(t, func(raw net.Conn) {
			raw.Write(writeLen(100))
			raw.Write(make([]byte, 40)) // 60 bytes short
			raw.Close()
		}, ErrBadFrame)
	})
	t.Run("garbage-body", func(t *testing.T) {
		body := make([]byte, 32)
		for i := range body {
			body[i] = 0xff
		}
		check(t, func(raw net.Conn) {
			raw.Write(writeLen(32))
			raw.Write(body)
		}, ErrBadFrame)
	})
	t.Run("clean-close-is-eof", func(t *testing.T) {
		check(t, func(raw net.Conn) { raw.Close() }, io.EOF) // clean close is not frame damage
	})
}

// TestPreambleByte pins the one byte a revision-4 dialer sends: 0x11 until
// four reply layouts grew their directory grants, 0x21 until a lock's
// grant grew the block map, 0x31 until block maps went as runs.
func TestPreambleByte(t *testing.T) {
	a, b := pipe(t)
	go Dial(a, Binary)
	var pre [1]byte
	if _, err := io.ReadFull(b, pre[:]); err != nil || pre[0] != 0x41 {
		t.Fatalf("preamble = %#02x, %v; want 0x41", pre[0], err)
	}
	if _, err := Dial(a, 0); err == nil {
		t.Fatal("Dial accepted the retired codec 0")
	}
}

// TestSendRefusesOversizedFrame: an envelope over MaxFrame is refused by
// Send, typed, before anything is written — the connection and the
// messages that follow on it survive. At the receiver the same frame is
// an impossible length prefix, which costs the connection.
func TestSendRefusesOversizedFrame(t *testing.T) {
	ca, cb := codecPair(t)
	huge := &msg.Envelope{From: 7, To: 8, Payload: &msg.FuncWrite{
		ReqHeader: msg.ReqHeader{Client: 7, Req: 1}, Ino: 3, Data: make([]byte, MaxFrame)}}
	if err := ca.Send(huge); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized Send: err = %v, want ErrFrameTooLarge", err)
	}
	// The same connection still carries a metadata-only frame and one
	// with a scatter-gather tail.
	go func() {
		ca.Send(&msg.Envelope{From: 7, To: 8, Payload: &msg.GetAttr{
			ReqHeader: msg.ReqHeader{Client: 7, Req: 2}, Ino: 3}})
		ca.Send(&msg.Envelope{From: 7, To: 8, Payload: &msg.DiskWrite{
			Client: 7, Req: 3, Block: 3, Data: []byte("page-data"), Ver: 11}})
	}()
	env, err := cb.Recv()
	if err != nil {
		t.Fatalf("frame after a refused Send: %v", err)
	}
	if ga, ok := env.Payload.(*msg.GetAttr); !ok || ga.Req != 2 {
		t.Fatalf("got %+v, want the GetAttr that followed", env.Payload)
	}
	env.Release()
	env, err = cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if dw, ok := env.Payload.(*msg.DiskWrite); !ok || dw.Ver != 11 || string(dw.Data) != "page-data" {
		t.Fatalf("tail-carrying frame mangled: %+v", env.Payload)
	}
	env.Release()
}
