package msg

import "testing"

// The codec micro-benchmarks: per-message encode/decode cost of the
// wire format on the hottest frame on the SAN — a DiskWrite carrying one
// 4 KiB block. bench-gate holds the encode at 0 allocs/op and the decode
// at 2 (the message and its envelope).

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
