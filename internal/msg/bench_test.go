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
// it — the data tail is aliased, never copied.
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
		if _, err := k.Decode(frame); err != nil {
			t.Fatal(err)
		}
	}); got != 2 {
		t.Errorf("Decode of a DiskWrite: %v allocs, want 2", got)
	}
}
