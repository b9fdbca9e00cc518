package msg

import (
	"bytes"
	"encoding/gob"
	"errors"
	"reflect"
	"testing"

	"repro/internal/bufpool"
)

// fill deterministically populates every exported field of v with
// non-zero values, so a round trip that drops or reorders any field
// fails loudly. Interface fields (Reply.Body) are the caller's problem.
func fill(v reflect.Value, ctr *int) {
	next := func() uint64 { *ctr++; return uint64(*ctr) }
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(next()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(next())
	case reflect.String:
		v.SetString("path-" + string(rune('a'+byte(next()%26))))
	case reflect.Slice:
		n := 2
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			fill(s.Index(i), ctr)
		}
		v.Set(s)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).PkgPath != "" {
				continue // unexported
			}
			if v.Type().Field(i).Type.Kind() == reflect.Interface {
				continue // Reply.Body: filled explicitly by the caller
			}
			fill(v.Field(i), ctr)
		}
	case reflect.Ptr:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		fill(v.Elem(), ctr)
	default:
		panic("fill: unhandled kind " + v.Kind().String())
	}
}

// normalize rewrites zero-length slices to nil throughout, so gob's and
// the binary codec's differing nil/empty conventions compare equal —
// the protocol never distinguishes them.
func normalize(v reflect.Value) {
	switch v.Kind() {
	case reflect.Slice:
		if v.Len() == 0 {
			if v.CanSet() {
				v.Set(reflect.Zero(v.Type()))
			}
			return
		}
		for i := 0; i < v.Len(); i++ {
			normalize(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).PkgPath != "" {
				continue
			}
			normalize(v.Field(i))
		}
	case reflect.Interface, reflect.Ptr:
		if !v.IsNil() {
			if v.Kind() == reflect.Interface {
				// Interfaces hold values; copy out, normalize, put back.
				inner := reflect.New(v.Elem().Type()).Elem()
				inner.Set(v.Elem())
				normalize(inner)
				if v.CanSet() {
					v.Set(inner)
				}
				return
			}
			normalize(v.Elem())
		}
	}
}

func normalized(env *Envelope) Envelope {
	cp := *env
	cp.borrow = nil
	normalize(reflect.ValueOf(&cp).Elem())
	return cp
}

// encodeFrame runs the production encode path: size, header+meta encode,
// scatter-gather tail appended exactly as writev would transmit it.
func encodeFrame(t testing.TB, env *Envelope) []byte {
	t.Helper()
	meta, tail, err := BinarySize(env)
	if err != nil {
		t.Fatalf("BinarySize(%T): %v", env.Payload, err)
	}
	body := make([]byte, meta)
	if err := EncodeBinary(body, env); err != nil {
		t.Fatalf("EncodeBinary(%T): %v", env.Payload, err)
	}
	return append(body, tail...)
}

func gobRoundTrip(t *testing.T, env *Envelope) *Envelope {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(env); err != nil {
		t.Fatalf("gob encode %T: %v", env.Payload, err)
	}
	var out Envelope
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("gob decode %T: %v", env.Payload, err)
	}
	return &out
}

// filledEnvelopes is the exhaustive corpus: every registered message
// type with every field populated, plus one Reply per result type.
// Adding a message type to the registry automatically adds it here.
func filledEnvelopes() []*Envelope {
	var envs []*Envelope
	ctr := 0
	for _, m := range AllMessages() {
		fill(reflect.ValueOf(m).Elem(), &ctr)
		if r, ok := m.(*Reply); ok {
			r.Body = nil // body-less reply; result-bearing ones below
		}
		envs = append(envs, &Envelope{From: 3, To: 9, Payload: m})
	}
	for _, res := range AllResults() {
		rv := reflect.New(reflect.TypeOf(res)).Elem()
		fill(rv, &ctr)
		r := &Reply{Status: ACK, Err: OK, Body: rv.Interface().(Result)}
		fill(reflect.ValueOf(&r.Client).Elem(), &ctr)
		fill(reflect.ValueOf(&r.Req).Elem(), &ctr)
		envs = append(envs, &Envelope{From: 3, To: 9, Payload: r})
	}
	return envs
}

// TestBinaryRoundTripAllTypes: encode→decode through the binary codec
// preserves every field of every message and result type.
func TestBinaryRoundTripAllTypes(t *testing.T) {
	for _, env := range filledEnvelopes() {
		frame := encodeFrame(t, env)
		got, err := DecodeBinary(frame)
		if err != nil {
			t.Fatalf("DecodeBinary(%T): %v", env.Payload, err)
		}
		want, have := normalized(env), normalized(got)
		if !reflect.DeepEqual(want, have) {
			t.Errorf("%T round trip:\n want %+v\n  got %+v", env.Payload, want.Payload, have.Payload)
		}
	}
}

// TestBinaryGobEquivalence: decoding a binary frame yields the same
// envelope gob yields — the two codecs are semantically interchangeable.
func TestBinaryGobEquivalence(t *testing.T) {
	RegisterGob()
	for _, env := range filledEnvelopes() {
		viaGob := normalized(gobRoundTrip(t, env))
		bin, err := DecodeBinary(encodeFrame(t, env))
		if err != nil {
			t.Fatalf("DecodeBinary(%T): %v", env.Payload, err)
		}
		viaBin := normalized(bin)
		if !reflect.DeepEqual(viaGob, viaBin) {
			t.Errorf("%T diverges:\n gob %+v\n bin %+v", env.Payload, viaGob.Payload, viaBin.Payload)
		}
	}
}

// TestBinaryZeroValues: zero-valued messages (empty paths, nil data,
// zero-length vectors) survive the round trip.
func TestBinaryZeroValues(t *testing.T) {
	for _, m := range AllMessages() {
		env := &Envelope{From: 1, To: 2, Payload: m}
		got, err := DecodeBinary(encodeFrame(t, env))
		if err != nil {
			t.Fatalf("DecodeBinary(zero %T): %v", m, err)
		}
		want, have := normalized(env), normalized(got)
		if !reflect.DeepEqual(want, have) {
			t.Errorf("zero %T round trip:\n want %+v\n  got %+v", m, want.Payload, have.Payload)
		}
	}
}

// TestBinaryAllErrnos: every errno value survives both the scalar Err
// field and the per-block error vector.
func TestBinaryAllErrnos(t *testing.T) {
	for e := 0; e < len(errnoNames); e++ {
		errno := Errno(e)
		env := &Envelope{From: 1, To: 2, Payload: &Reply{Client: 1, Req: 2, Status: ACK, Err: errno}}
		got, err := DecodeBinary(encodeFrame(t, env))
		if err != nil {
			t.Fatalf("errno %v: %v", errno, err)
		}
		if r := got.Payload.(*Reply); r.Err != errno {
			t.Errorf("scalar errno %v decoded as %v", errno, r.Err)
		}
		vec := &Envelope{From: 1, To: 2, Payload: &DiskWriteVRes{
			Req: 7, Err: errno, Errs: []Errno{errno, OK, errno}}}
		got, err = DecodeBinary(encodeFrame(t, vec))
		if err != nil {
			t.Fatalf("errno vector %v: %v", errno, err)
		}
		if r := got.Payload.(*DiskWriteVRes); r.Errs[0] != errno || r.Errs[2] != errno {
			t.Errorf("vector errno %v decoded as %v", errno, r.Errs)
		}
	}
}

// TestBinaryMaxBlockVector: a full-size flush batch — the largest frame
// the protocol produces — round trips intact, data aligned per block.
func TestBinaryMaxBlockVector(t *testing.T) {
	const blocks, blockSize = 64, 4096
	vecs := make([]BlockVec, blocks)
	data := make([]byte, blocks*blockSize)
	for i := range vecs {
		vecs[i] = BlockVec{Block: uint64(i * 7), Ver: uint64(i + 1)}
		for j := 0; j < blockSize; j++ {
			data[i*blockSize+j] = byte(i)
		}
	}
	env := &Envelope{From: 10, To: 20, Payload: &DiskWriteV{
		Client: 10, Req: 5, Blocks: vecs, Data: data}}
	got, err := DecodeBinary(encodeFrame(t, env))
	if err != nil {
		t.Fatal(err)
	}
	out := got.Payload.(*DiskWriteV)
	if len(out.Blocks) != blocks || !bytes.Equal(out.Data, data) {
		t.Fatalf("max batch mangled: %d blocks, %d data bytes", len(out.Blocks), len(out.Data))
	}
	if out.Blocks[63] != (BlockVec{Block: 63 * 7, Ver: 64}) {
		t.Fatalf("last vec mangled: %+v", out.Blocks[63])
	}
}

// TestBinaryDecodeCorruption: every truncation of every valid frame
// fails cleanly (no panic, no giant allocation), and single-byte damage
// never panics.
func TestBinaryDecodeCorruption(t *testing.T) {
	for _, env := range filledEnvelopes() {
		frame := encodeFrame(t, env)
		for cut := 0; cut < len(frame); cut++ {
			if _, err := DecodeBinary(frame[:cut]); err == nil {
				t.Errorf("%T truncated to %d/%d bytes decoded successfully",
					env.Payload, cut, len(frame))
			}
		}
		for i := 0; i < len(frame); i++ {
			mut := append([]byte(nil), frame...)
			mut[i] ^= 0xff
			DecodeBinary(mut) // must not panic; error or alternate decode both fine
		}
	}
}

// TestBinaryDecodeHostileCounts: fabricated frames whose length prefixes
// and element counts lie about the remaining bytes must error, not
// allocate or scan out of bounds.
func TestBinaryDecodeHostileCounts(t *testing.T) {
	hostile := [][]byte{
		{},
		{0, 0, 0, 1, 0, 0, 0, 2},     // shorter than header
		{0, 0, 0, 1, 0, 0, 0, 2, 0},  // unknown type 0
		{0, 0, 0, 1, 0, 0, 0, 2, 99}, // unknown type 99
		{0, 0, 0, 1, 0, 0, 0, 2, btDiskWriteV, 0xff}, // truncated mid-header
		append([]byte{0, 0, 0, 1, 0, 0, 0, 2, btDiskWriteV, 0, 0, 0, 3, 0, 0, 0, 1}, // Client..Req then count lies
			0xff, 0xff, 0xff, 0xff),
	}
	for i, frame := range hostile {
		if _, err := DecodeBinary(frame); !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("hostile frame %d: err = %v, want ErrCorruptFrame", i, err)
		}
	}
}

// TestBinaryZeroCopyAliasing: the documented aliasing contract — SAN
// page payloads alias the receive buffer; control-path data is copied —
// and, for every type's golden frame, the table Aliases reads agrees
// with it: a type the table calls non-aliasing decodes to a message that
// survives its frame being overwritten, which is what lets the live codec
// decode such frames in its connection buffer and reuse the bytes at once.
func TestBinaryZeroCopyAliasing(t *testing.T) {
	aliased := func(frame, data []byte) bool {
		if len(data) == 0 {
			return false
		}
		f0 := &frame[0]
		return uintptr(len(frame)) > 0 && sliceWithin(f0, frame, data)
	}
	page := bytes.Repeat([]byte{0xab}, 4096)
	san := &Envelope{From: 1, To: 2, Payload: &DiskWrite{Client: 1, Req: 2, Block: 3, Data: page, Ver: 4}}
	frame := encodeFrame(t, san)
	got, err := DecodeBinary(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !aliased(frame, got.Payload.(*DiskWrite).Data) {
		t.Error("DiskWrite.Data was copied; expected zero-copy alias of the frame")
	}
	ctl := &Envelope{From: 1, To: 2, Payload: &FuncWrite{Ino: 9, Offset: 0, Data: page}}
	frame = encodeFrame(t, ctl)
	got, err = DecodeBinary(frame)
	if err != nil {
		t.Fatal(err)
	}
	if aliased(frame, got.Payload.(*FuncWrite).Data) {
		t.Error("FuncWrite.Data aliases the frame; control payloads outlive the handler and must be copied")
	}

	pages := map[string]bool{"DiskWrite": true, "DiskWriteV": true, "DiskReadRes": true, "DiskReadVRes": true}
	var k Coder
	for name, want := range readGolden(t) {
		frame := append([]byte(nil), want...)
		var env Envelope
		if err := k.DecodeInto(frame, &env); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if Aliases(frame) != pages[name] {
			t.Errorf("%s: Aliases = %v, want %v", name, Aliases(frame), pages[name])
			continue
		}
		if pages[name] {
			if !aliased(frame, dataOf(env.Payload)) {
				t.Errorf("%s.Data does not share its frame", name)
			}
			continue
		}
		for i := range frame {
			frame[i] = 0xDB
		}
		if got := encodeFrame(t, &env); !bytes.Equal(got, want) {
			t.Errorf("%s decoded in place does not survive its frame:\n got %x\nwant %x", name, got, want)
		}
	}
}

// dataOf returns the Data field of a message, nil for one without.
func dataOf(m Message) []byte {
	if f := reflect.ValueOf(m).Elem().FieldByName("Data"); f.IsValid() {
		return f.Bytes()
	}
	return nil
}

// bulkProbe and copyProbe stand for a type that gains a bulk field: one
// whose layout ends in tail must come out aliasing, whatever its name,
// and one that copies its bulk out must not.
type bulkProbe struct {
	A    uint64
	Data []byte
}

func (m *bulkProbe) layout(c *coder) { c.u64(&m.A); c.tail(&m.Data) }

type copyProbe bulkProbe

func (m *copyProbe) layout(c *coder) { c.u64(&m.A); c.tailCopy(&m.Data) }

func TestAliasingIsDerivedFromLayouts(t *testing.T) {
	if !reachesTail((&bulkProbe{}).layout) {
		t.Error("a layout that reaches tail is not derived as aliasing")
	}
	if reachesTail((&copyProbe{}).layout) {
		t.Error("a layout whose bulk field is copied out is derived as aliasing")
	}
	for _, m := range AllMessages() {
		id := messageID(m)
		if _, cell := m.(borrower); aliasing[id] != cell {
			t.Errorf("%T: aliasing %v, borrow cell %v", m, aliasing[id], cell)
		}
	}
}

// sliceWithin reports whether inner's backing array lies inside outer's.
func sliceWithin(outerFirst *byte, outer, inner []byte) bool {
	o0 := uintptr(reflectPointer(outer))
	i0 := uintptr(reflectPointer(inner))
	return i0 >= o0 && i0+uintptr(len(inner)) <= o0+uintptr(len(outer)) && outerFirst == &outer[0]
}

func reflectPointer(b []byte) uintptr {
	return reflect.ValueOf(b).Pointer()
}

// TestBorrowLifecycle: the borrowed buffer goes back to the pool exactly
// once, after every Retain has been matched by a Release.
func TestBorrowLifecycle(t *testing.T) {
	held := func(e *Envelope) bool { return e.refs().Load() > 0 }
	env := &Envelope{Payload: &DiskReadRes{}}
	env.Borrowed(bufpool.Get(bufpool.MinClass))
	env.Retain()
	env.Release()
	if !held(env) {
		t.Fatal("freed while retained")
	}
	env.Release()
	if held(env) {
		t.Fatal("the last Release kept the buffer")
	}
	// Copies of the envelope share the cell.
	env2 := &Envelope{Payload: &DiskWrite{}}
	env2.Borrowed(bufpool.Get(bufpool.MinClass))
	cp := *env2
	cp.Retain()
	env2.Release()
	if !held(env2) {
		t.Fatal("freed while a copy held a retain")
	}
	cp.Release()
	if held(&cp) {
		t.Fatal("the copy's last Release kept the buffer")
	}
	// No borrow: Retain/Release are no-ops.
	var bare Envelope
	bare.Retain()
	bare.Release()
}

// FuzzDecodeBinary: arbitrary bytes must never panic the decoder.
func FuzzDecodeBinary(f *testing.F) {
	for _, env := range filledEnvelopes() {
		meta, tail, err := BinarySize(env)
		if err != nil {
			continue
		}
		body := make([]byte, meta)
		if EncodeBinary(body, env) == nil {
			f.Add(append(body, tail...))
		}
	}
	for _, frame := range readGolden(f) {
		f.Add(frame)
	}
	f.Add(truncatedLockRes(f))
	for _, bad := range badMaps {
		f.Add(encodeFrame(f, runCarriers(bad.m)["AllocRes"]))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := DecodeBinary(data)
		if err == nil {
			// A successful decode must re-encode without error.
			if _, _, err := BinarySize(env); err != nil {
				t.Fatalf("decoded envelope has no size: %v", err)
			}
		}
	})
}
