package blockstore

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/stats"
)

func vecPayload(tag byte, n int) []BlockWrite {
	batch := make([]BlockWrite, n)
	for i := range batch {
		batch[i] = BlockWrite{
			Block: uint64(i),
			Data:  bytes.Repeat([]byte{tag + byte(i)}, BlockSize),
			Ver:   uint64(100 + i),
		}
	}
	return batch
}

func TestWriteVMatchesWriteLoop(t *testing.T) {
	media := []struct {
		name string
		m    Media
	}{
		{"mem", NewMem()},
		{"file", openTemp(t, t.TempDir(), 64)},
	}
	for _, tc := range media {
		t.Run(tc.name, func(t *testing.T) {
			batch := vecPayload(0x20, 8)
			for _, err := range tc.m.WriteV(batch) {
				if err != nil {
					t.Fatal(err)
				}
			}
			for _, w := range batch {
				data, ver, ok, err := tc.m.Read(w.Block)
				if err != nil || !ok || ver != w.Ver || !bytes.Equal(data, w.Data) {
					t.Fatalf("block %d: ok=%v ver=%d err=%v", w.Block, ok, ver, err)
				}
			}
		})
	}
}

// TestFileWriteVGroupCommit is the durability-amortization contract: a
// batch of n blocks costs exactly 2 fsyncs (data + meta) where a loop of
// scalar Writes costs 2·n, and the saving is accounted.
func TestFileWriteVGroupCommit(t *testing.T) {
	reg := stats.NewRegistry()
	dir := t.TempDir()
	f, err := Open(dir, Options{Blocks: 64, Registry: reg, StatsPrefix: "m."})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	base := reg.CounterValue("m.fsyncs") // superblock fsync from create
	const n = 8
	for _, err := range f.WriteV(vecPayload(0x30, n)) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.CounterValue("m.fsyncs") - base; got != 2 {
		t.Fatalf("batch of %d cost %d fsyncs, want 2 (group commit)", n, got)
	}
	if got := reg.CounterValue("m.fsyncs_saved"); got != 2*n-2 {
		t.Fatalf("fsyncs_saved = %d, want %d", got, 2*n-2)
	}
}

// TestFileWriteVPersists: a batch acknowledged by WriteV survives close
// and reopen with every block's contents and version intact
// (ack-implies-batch-durable).
func TestFileWriteVPersists(t *testing.T) {
	dir := t.TempDir()
	f := openTemp(t, dir, 64)
	batch := vecPayload(0x40, 6)
	for _, err := range f.WriteV(batch) {
		if err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	g := openTemp(t, dir, 64)
	rep := g.Recovery()
	if rep.Verified != uint64(len(batch)) || len(rep.Torn) != 0 {
		t.Fatalf("recovery report: %v", rep)
	}
	for _, w := range batch {
		data, ver, ok, err := g.Read(w.Block)
		if err != nil || !ok || ver != w.Ver || !bytes.Equal(data, w.Data) {
			t.Fatalf("block %d after reopen: ok=%v ver=%d err=%v", w.Block, ok, ver, err)
		}
	}
}

// TestFileWriteVPartialFailure: invalid entries fail individually without
// stopping the rest of the batch from committing.
func TestFileWriteVPartialFailure(t *testing.T) {
	f := openTemp(t, t.TempDir(), 8)
	batch := []BlockWrite{
		{Block: 0, Data: []byte("good"), Ver: 1},
		{Block: 99, Data: []byte("beyond"), Ver: 2},         // out of range
		{Block: 1, Data: make([]byte, BlockSize+1), Ver: 3}, // oversized
		{Block: 2, Data: bytes.Repeat([]byte{7}, BlockSize), Ver: 4},
	}
	errs := f.WriteV(batch)
	if errs[0] != nil || errs[3] != nil {
		t.Fatalf("valid entries failed: %v %v", errs[0], errs[3])
	}
	if errs[1] == nil || errs[2] == nil {
		t.Fatalf("invalid entries accepted: %v %v", errs[1], errs[2])
	}
	if _, ver, ok, err := f.Read(0); err != nil || !ok || ver != 1 {
		t.Fatalf("block 0: ok=%v ver=%d err=%v", ok, ver, err)
	}
	if _, ver, ok, err := f.Read(2); err != nil || !ok || ver != 4 {
		t.Fatalf("block 2: ok=%v ver=%d err=%v", ok, ver, err)
	}
	if _, _, ok, _ := f.Read(1); ok {
		t.Fatal("oversized entry reached the media")
	}
}

func TestWriteVEmptyBatch(t *testing.T) {
	for _, m := range []Media{NewMem(), openTemp(t, t.TempDir(), 8)} {
		if errs := m.WriteV(nil); len(errs) != 0 {
			t.Fatalf("%T: empty batch returned %d errors", m, len(errs))
		}
	}
}

func BenchmarkFileWriteVSync(b *testing.B) {
	for _, n := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("batch=%d", n), func(b *testing.B) {
			f, err := Open(b.TempDir(), Options{Blocks: 1 << 12})
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			batch := vecPayload(0x50, n)
			b.SetBytes(int64(n * BlockSize))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, err := range f.WriteV(batch) {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
