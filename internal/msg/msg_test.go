package msg

import (
	"bytes"
	"encoding/gob"
	"testing"
	"testing/quick"
)

func TestLockModeCompatible(t *testing.T) {
	cases := []struct {
		a, b LockMode
		want bool
	}{
		{LockNone, LockNone, true},
		{LockNone, LockShared, true},
		{LockNone, LockExclusive, true},
		{LockShared, LockShared, true},
		{LockShared, LockExclusive, false},
		{LockExclusive, LockExclusive, false},
	}
	for _, c := range cases {
		if got := c.a.Compatible(c.b); got != c.want {
			t.Errorf("Compatible(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Compatible(c.a); got != c.want {
			t.Errorf("Compatible(%v,%v) = %v, want %v (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

func TestLockModeCompatibleSymmetryProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		ma, mb := LockMode(a%3), LockMode(b%3)
		return ma.Compatible(mb) == mb.Compatible(ma)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLockModeCovers(t *testing.T) {
	if !LockExclusive.Covers(LockShared) || !LockExclusive.Covers(LockNone) {
		t.Fatal("exclusive must cover weaker modes")
	}
	if LockShared.Covers(LockExclusive) {
		t.Fatal("shared must not cover exclusive")
	}
	if !LockShared.Covers(LockShared) {
		t.Fatal("a mode covers itself")
	}
}

func TestErrnoStringsAndOr(t *testing.T) {
	if OK.Or() != nil {
		t.Fatal("OK.Or() must be nil")
	}
	if ErrNoEnt.Or() == nil {
		t.Fatal("ErrNoEnt.Or() must be non-nil")
	}
	if ErrNoEnt.Error() != "ErrNoEnt" {
		t.Fatalf("Error() = %q", ErrNoEnt.Error())
	}
	if Errno(200).String() == "" {
		t.Fatal("unknown errno must still format")
	}
}

func TestStatusAndKindStrings(t *testing.T) {
	if ACK.String() != "ACK" || NACK.String() != "NACK" {
		t.Fatal("status strings wrong")
	}
	if Status(9).String() == "" {
		t.Fatal("unknown status must format")
	}
	if KindKeepAlive.String() != "keepalive" {
		t.Fatalf("Kind string = %q", KindKeepAlive.String())
	}
	if Kind(200).String() == "" {
		t.Fatal("unknown kind must format")
	}
}

func TestGobRoundTripEnvelope(t *testing.T) {
	RegisterGob()
	RegisterGob() // idempotent
	reqs := []Message{
		&Lookup{ReqHeader: ReqHeader{Client: 3, Req: 7, Epoch: 1}, Path: "/a/b"},
		&KeepAlive{ReqHeader: ReqHeader{Client: 3, Req: 8, Epoch: 1}},
		&LockAcquire{ReqHeader: ReqHeader{Client: 3, Req: 9, Epoch: 1}, Ino: 42, Mode: LockExclusive},
		&Reply{Client: 3, Req: 9, Status: ACK, Err: OK, Body: LockRes{Mode: LockExclusive}},
		&Reply{Client: 3, Req: 10, Status: NACK},
		&Demand{ID: 5, Ino: 42, Mode: LockShared, Server: 1},
		&DiskWrite{Client: 3, Req: 11, Block: 100, Data: []byte("hello"), Ver: 9},
		&DiskWriteV{Client: 3, Req: 13, Blocks: []BlockVec{{Block: 4, Ver: 1}},
			Data: make([]byte, 4096)},
		&DiskWriteVRes{Req: 13, Errs: []Errno{OK}},
		&DiskReadV{Client: 3, Req: 14, Blocks: []uint64{4, 5}},
		&DiskReadVRes{Req: 14, Errs: []Errno{OK, OK}, Vers: []uint64{1, 2},
			Data: make([]byte, 8192)},
		&Reply{Client: 3, Req: 12, Status: ACK, Body: BlocksRes{
			Attr: Attr{Ino: 42, Size: 8192, Version: 3, Nlink: 1},
			Map:  Extents{{Disk: 9, Start: 0, Len: 2}},
		}},
	}
	for _, m := range reqs {
		var buf bytes.Buffer
		env := Envelope{From: 3, To: 1, Payload: m}
		if err := gob.NewEncoder(&buf).Encode(&env); err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		var out Envelope
		if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
			t.Fatalf("decode %T: %v", m, err)
		}
		if out.From != 3 || out.To != 1 {
			t.Fatalf("envelope header lost: %+v", out)
		}
		if out.Payload.Kind() != m.Kind() {
			t.Fatalf("kind changed: %v -> %v", m.Kind(), out.Payload.Kind())
		}
	}
}

func TestGobReplyBodyTypes(t *testing.T) {
	RegisterGob()
	r := &Reply{Client: 1, Req: 2, Status: ACK, Body: ReaddirRes{
		Entries: []DirEntry{{Name: "x", Ino: 5, IsDir: true}},
	}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(Envelope{From: 1, To: 2, Payload: r}); err != nil {
		t.Fatal(err)
	}
	var out Envelope
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	got := out.Payload.(*Reply).Body.(ReaddirRes)
	if len(got.Entries) != 1 || got.Entries[0].Name != "x" || got.Entries[0].Ino != 5 {
		t.Fatalf("body mismatch: %+v", got)
	}
}

// TestSizesPositive: what a byte counter adds for a message is its whole
// frame body — the 9-byte header, the metadata and the data tail — and
// never less.
func TestSizesPositive(t *testing.T) {
	msgs := []Message{
		&Rejoin{}, &KeepAlive{}, &Lookup{Path: "p"}, &Create{Path: "p"},
		&Unlink{Path: "p"}, &Open{}, &Close{}, &GetAttr{}, &SetAttr{},
		&Readdir{}, &GetBlocks{}, &AllocBlocks{}, &LockAcquire{},
		&LockRelease{}, &LockDowngraded{}, &Heartbeat{},
		&RenewObjects{Inos: []ObjectID{1, 2}}, &FuncRead{},
		&FuncWrite{Data: make([]byte, 10)},
		&Reply{Body: FuncReadRes{Data: make([]byte, 10)}},
		&Demand{}, &DemandAck{},
		&DiskRead{}, &DiskReadRes{Data: make([]byte, 4)}, &DiskWrite{},
		&DiskWriteRes{}, &DiskWriteV{Blocks: []BlockVec{{}}}, &DiskWriteVRes{},
		&DiskReadV{}, &DiskReadVRes{}, &FenceSet{}, &FenceRes{}, &DLockAcquire{},
		&DLockRelease{}, &DLockRes{},
	}
	for _, m := range msgs {
		env := &Envelope{From: 1, To: 2, Payload: m}
		if n, frame := countedBytes(t, env), encodeFrame(t, env); n <= 9 || n != len(frame) {
			t.Errorf("%T counts %d bytes, its frame body is %d", m, n, len(frame))
		}
		if m.Kind().String() == "" {
			t.Errorf("%T has empty kind string", m)
		}
	}
}

func TestRenewObjectsSizeScales(t *testing.T) {
	small := countedBytes(t, &Envelope{Payload: &RenewObjects{Inos: make([]ObjectID, 1)}})
	big := countedBytes(t, &Envelope{Payload: &RenewObjects{Inos: make([]ObjectID, 100)}})
	if big-small != 99*8 {
		t.Fatalf("100 objects count %d bytes more than 1, want 99×8", big-small)
	}
}
