package msg

import (
	"testing"

	"repro/internal/bufpool"
)

// The codec micro-benchmarks: per-message encode/decode cost of the
// wire format on the hottest frame on the SAN — a DiskWrite carrying one
// 4 KiB block. bench-gate holds the encode at 0 allocs/op and the decode
// at 2 (the message and its envelope); TestCoderAllocs pins the same
// counts in the tier-1 suite.

func benchDiskWrite() *Envelope {
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i)
	}
	return &Envelope{
		From: 10, To: 1000,
		Payload: &DiskWrite{Client: 10, Req: 77, Block: 42, Data: data, Ver: 3},
	}
}

func BenchmarkBinaryEncodeDiskWrite(b *testing.B) {
	env := benchDiskWrite()
	meta, _, err := BinarySize(env)
	if err != nil {
		b.Fatal(err)
	}
	body := make([]byte, meta)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := EncodeBinary(body, env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinaryDecodeDiskWrite(b *testing.B) {
	env := benchDiskWrite()
	meta, tail, err := BinarySize(env)
	if err != nil {
		b.Fatal(err)
	}
	frame := make([]byte, meta, meta+len(tail))
	if err := EncodeBinary(frame, env); err != nil {
		b.Fatal(err)
	}
	frame = append(frame, tail...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBinary(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCoderAllocs pins what a kept Coder allocates per DiskWrite frame:
// nothing to size and encode it, the message and its envelope to decode
// it — the data tail is aliased, never copied, and the borrow cell is a
// field of the message — and the message alone to decode it into an
// envelope the caller keeps, as the live codec does.
func TestCoderAllocs(t *testing.T) {
	if bufpool.Debug {
		t.Skip("tankdebug hooks allocate by design")
	}
	env := benchDiskWrite()
	var k Coder
	meta, tail, err := k.Size(env)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, meta, meta+len(tail))
	if got := testing.AllocsPerRun(1000, func() {
		meta, _, _ := k.Size(env)
		if err := k.Encode(frame[:meta], env); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Size+Encode of a DiskWrite: %v allocs, want 0", got)
	}
	frame = append(frame, tail...)
	if got := testing.AllocsPerRun(1000, func() {
		var err error
		if sinkEnv, err = k.Decode(frame); err != nil {
			t.Fatal(err)
		}
	}); got != 2 {
		t.Errorf("Decode of a DiskWrite: %v allocs, want 2", got)
	}
	var kept Envelope
	if got := testing.AllocsPerRun(1000, func() {
		if err := k.DecodeInto(frame, &kept); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Errorf("DecodeInto of a DiskWrite: %v allocs, want 1", got)
	}
}

// sinkEnv keeps a decoded envelope reachable, so that the compiler cannot
// place it on the stack.
var sinkEnv *Envelope

// grantMap1024 is a lock grant carrying the map of a 1 024-block file as
// the allocator lays one out: sixteen runs of 64, alternating between
// two disks.
func grantMap1024() *Envelope {
	var m Extents
	for i := 0; i < 16; i++ {
		m = m.Append(Extent{Disk: 1000 + NodeID(i%2), Start: uint64(i/2) * 64, Len: 64})
	}
	return &Envelope{From: 1, To: 10, Payload: &Reply{Client: 10, Req: 7, Status: ACK, Err: OK,
		Body: LockRes{Mode: LockExclusive, HaveMap: true, Attr: Attr{Ino: 2, Size: 1024 * 4096, Version: 9, Nlink: 1}, Map: m}}}
}

// BenchmarkGrantMap encodes and decodes a grant that carries a 1 024-block
// file's map, on a kept Coder as the live codec runs them. bench-gate
// holds its allocs/op and B/op: a map that went back to one entry per
// block would cost 12 KiB a decode where its sixteen runs cost 256 B.
func BenchmarkGrantMap(b *testing.B) {
	env := grantMap1024()
	var k Coder
	meta, _, err := k.Size(env)
	if err != nil {
		b.Fatal(err)
	}
	frame := make([]byte, meta)
	var kept Envelope
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		meta, _, _ := k.Size(env)
		if err := k.Encode(frame[:meta], env); err != nil {
			b.Fatal(err)
		}
		if err := k.DecodeInto(frame, &kept); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(frame)), "frame_B")
}
