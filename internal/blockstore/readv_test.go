package blockstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/stats"
)

// openFast is openTemp without the fsyncs, for tests that write thousands
// of blocks and crash nothing.
func openFast(t *testing.T, dir string, blocks uint64) *File {
	t.Helper()
	f, err := Open(dir, Options{Blocks: blocks, NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// stamp is block's content at version ver: recognisable, and different in
// every byte position from a neighbour's.
func stamp(block, ver uint64) []byte {
	data := make([]byte, BlockSize)
	for i := range data {
		data[i] = byte(block*31 + ver*7 + uint64(i))
	}
	return data
}

// flipByte damages one byte of block in dir's data file, the way decaying
// media would: behind the store's back.
func flipByte(t *testing.T, dir string, block uint64, at int64) {
	t.Helper()
	f, err := os.OpenFile(DataPath(dir), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], DataOffset(block)+at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], DataOffset(block)+at); err != nil {
		t.Fatal(err)
	}
}

// readLoop is the reference ReadV is held to: Read, block by block, into
// the shape ReadV answers in.
func readLoop(m Media, blocks []uint64) (dst []byte, vers []uint64, errs []error) {
	dst = make([]byte, len(blocks)*BlockSize)
	vers = make([]uint64, len(blocks))
	errs = make([]error, len(blocks))
	for i, b := range blocks {
		data, ver, ok, err := m.Read(b)
		if err != nil {
			errs[i] = err
			continue
		}
		if ok {
			copy(dst[i*BlockSize:], data)
			vers[i] = ver
		}
	}
	return dst, vers, errs
}

// randomBlockList mixes every shape a request can have: ascending runs,
// gaps, descending stretches, duplicates, and — when beyond is set —
// numbers past the capacity.
func randomBlockList(rng *rand.Rand, capacity uint64, beyond bool) []uint64 {
	var blocks []uint64
	for len(blocks) < 1+rng.Intn(40) {
		start := uint64(rng.Intn(int(capacity)))
		switch rng.Intn(6) {
		case 0, 1, 2: // an ascending run
			for k := uint64(0); k < uint64(1+rng.Intn(12)) && start+k < capacity; k++ {
				blocks = append(blocks, start+k)
			}
		case 3: // descending
			for k := uint64(0); k < uint64(1+rng.Intn(5)) && k <= start; k++ {
				blocks = append(blocks, start-k)
			}
		case 4: // a duplicate
			blocks = append(blocks, start, start)
		case 5:
			if beyond {
				blocks = append(blocks, capacity+uint64(rng.Intn(3)))
			}
		}
	}
	return blocks
}

// TestReadVMatchesReadLoop: over seeded random stores — written stretches,
// holes, blocks decayed behind the store's back — and random requests,
// ReadV answers every block exactly as a loop of Read does: the same
// bytes (zeros where nothing is served), the same version, the same
// refusal, and the same blocks marked torn afterwards. Twin stores are
// used because a read that finds a bad checksum changes the store.
func TestReadVMatchesReadLoop(t *testing.T) {
	const capacity = 96
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dirs := [2]string{t.TempDir(), t.TempDir()}
		files := [2]*File{openFast(t, dirs[0], capacity), openFast(t, dirs[1], capacity)}
		mems := [2]*Mem{NewMem(), NewMem()}
		var written []uint64
		for b := uint64(0); b < capacity; b++ {
			if rng.Intn(4) == 0 {
				continue // a hole
			}
			ver := uint64(1 + rng.Intn(9))
			for i := range files {
				if err := files[i].Write(b, stamp(b, ver), ver); err != nil {
					t.Fatal(err)
				}
				if err := mems[i].Write(b, stamp(b, ver), ver); err != nil {
					t.Fatal(err)
				}
			}
			written = append(written, b)
		}
		for k := 0; k < 4; k++ {
			b, at := written[rng.Intn(len(written))], int64(rng.Intn(BlockSize))
			flipByte(t, dirs[0], b, at)
			flipByte(t, dirs[1], b, at)
		}
		for round := 0; round < 6; round++ {
			for _, tc := range []struct {
				name        string
				vec, scalar Media
			}{
				{"file", files[0], files[1]},
				{"mem", mems[0], mems[1]},
			} {
				blocks := randomBlockList(rng, capacity, tc.name == "file")
				dst := bytes.Repeat([]byte{0xDB}, len(blocks)*BlockSize) // a recycled buffer is dirty
				vers := make([]uint64, len(blocks))
				for i := range vers {
					vers[i] = ^uint64(0)
				}
				errs := tc.vec.ReadV(blocks, dst, vers)
				wantDst, wantVers, wantErrs := readLoop(tc.scalar, blocks)
				for i, b := range blocks {
					var err error
					if errs != nil {
						err = errs[i]
					}
					if (err == nil) != (wantErrs[i] == nil) ||
						errors.Is(err, ErrTorn) != errors.Is(wantErrs[i], ErrTorn) ||
						(err != nil && err.Error() != wantErrs[i].Error()) {
						t.Fatalf("seed %d %s %v: block %d (#%d): err %v, Read says %v", seed, tc.name, blocks, b, i, err, wantErrs[i])
					}
					if vers[i] != wantVers[i] {
						t.Fatalf("seed %d %s %v: block %d (#%d): ver %d, Read says %d", seed, tc.name, blocks, b, i, vers[i], wantVers[i])
					}
					if !bytes.Equal(dst[i*BlockSize:(i+1)*BlockSize], wantDst[i*BlockSize:(i+1)*BlockSize]) {
						t.Fatalf("seed %d %s %v: block %d (#%d): bytes differ from Read's", seed, tc.name, blocks, b, i)
					}
				}
			}
		}
		for b := uint64(0); b < capacity; b++ {
			if files[0].index[b] != files[1].index[b] {
				t.Fatalf("seed %d: block %d left as %+v by ReadV, %+v by Read", seed, b, files[0].index[b], files[1].index[b])
			}
		}
		files[0].Close()
		files[1].Close()
	}
}

// TestReadVCorruptionInsideRun: one flipped byte in block k of an 8-block
// run fails exactly block k — ErrTorn, a zeroed slot, marked torn for the
// reads that follow — while its seven neighbours are served from the same
// single pread.
func TestReadVCorruptionInsideRun(t *testing.T) {
	const first, width, k = 10, 8, 5
	reg := stats.NewRegistry()
	dir := t.TempDir()
	f, err := Open(dir, Options{Blocks: 64, NoSync: true, Registry: reg, StatsPrefix: "m."})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	blocks := make([]uint64, width)
	for i := range blocks {
		blocks[i] = first + uint64(i)
		if err := f.Write(blocks[i], stamp(blocks[i], 3), 3); err != nil {
			t.Fatal(err)
		}
	}
	flipByte(t, dir, first+k, 1234)

	dst := bytes.Repeat([]byte{0xDB}, width*BlockSize)
	vers := make([]uint64, width)
	errs := f.ReadV(blocks, dst, vers)
	if errs == nil {
		t.Fatal("a decayed block was served")
	}
	for i, b := range blocks {
		slot := dst[i*BlockSize : (i+1)*BlockSize]
		if i == k {
			if !errors.Is(errs[i], ErrTorn) || vers[i] != 0 || !bytes.Equal(slot, make([]byte, BlockSize)) {
				t.Fatalf("decayed block %d: err %v ver %d, zero slot %v", b, errs[i], vers[i], bytes.Equal(slot, make([]byte, BlockSize)))
			}
			continue
		}
		if errs[i] != nil || vers[i] != 3 || !bytes.Equal(slot, stamp(b, 3)) {
			t.Fatalf("neighbour %d: err %v ver %d", b, errs[i], vers[i])
		}
	}
	if runs, n := reg.CounterValue("m.read_runs"), reg.CounterValue("m.read_run_blocks"); runs != 1 || n != width {
		t.Fatalf("%d blocks moved in %d preads, want %d in 1", n, runs, width)
	}
	if _, _, ok, err := f.Read(first + k); !ok || !errors.Is(err, ErrTorn) {
		t.Fatalf("the block is not marked torn: ok=%v err=%v", ok, err)
	}
	if len(f.Recovery().Torn) != 0 {
		t.Fatalf("a serve-time finding leaked into the open-time report: %v", f.Recovery())
	}
}

// TestReadVRunRule pins what a run is: adjacent block numbers that have
// bytes to fetch. A gap, a hole, a step backwards and a repeat each end
// one.
func TestReadVRunRule(t *testing.T) {
	reg := stats.NewRegistry()
	f, err := Open(t.TempDir(), Options{Blocks: 64, NoSync: true, Registry: reg, StatsPrefix: "m."})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for b := uint64(0); b < 32; b++ {
		if b == 6 {
			continue // a hole
		}
		if err := f.Write(b, stamp(b, 1), 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		blocks     []uint64
		runs, read uint64
	}{
		{[]uint64{0, 1, 2, 3}, 1, 4},
		{[]uint64{0, 1, 3, 4}, 2, 4},         // a gap
		{[]uint64{4, 5, 6, 7, 8}, 2, 4},      // a hole is answered without a pread
		{[]uint64{9, 8, 7}, 3, 3},            // descending
		{[]uint64{10, 10, 11}, 2, 3},         // a repeat
		{[]uint64{20, 21, 63, 22, 23}, 2, 4}, // never written, in range
	} {
		r0, b0 := reg.CounterValue("m.read_runs"), reg.CounterValue("m.read_run_blocks")
		dst := make([]byte, len(tc.blocks)*BlockSize)
		if errs := f.ReadV(tc.blocks, dst, make([]uint64, len(tc.blocks))); errs != nil {
			t.Fatalf("%v: %v", tc.blocks, errs)
		}
		if runs, n := reg.CounterValue("m.read_runs")-r0, reg.CounterValue("m.read_run_blocks")-b0; runs != tc.runs || n != tc.read {
			t.Errorf("%v: %d blocks in %d preads, want %d in %d", tc.blocks, n, runs, tc.read, tc.runs)
		}
	}
}

// writeLoop is the reference WriteV's staging is held to.
func writeLoop(m Media, batch []BlockWrite) []error {
	errs := make([]error, len(batch))
	for i, w := range batch {
		errs[i] = m.Write(w.Block, w.Data, w.Ver)
	}
	return errs
}

// TestWriteVRunsMatchPerBlockStaging: seeded random batches — runs, gaps,
// repeats, short blocks, entries that must be refused, payloads cut from
// one buffer and payloads scattered — leave the data and meta files
// byte for byte as a loop of Write leaves them, with the same entries
// refused.
func TestWriteVRunsMatchPerBlockStaging(t *testing.T) {
	const capacity = 64
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dirs := [2]string{t.TempDir(), t.TempDir()}
		vec, scalar := openFast(t, dirs[0], capacity), openFast(t, dirs[1], capacity)
		for round := 0; round < 8; round++ {
			blocks := randomBlockList(rng, capacity, true)
			whole := make([]byte, len(blocks)*BlockSize)
			rng.Read(whole)
			batch := make([]BlockWrite, len(blocks))
			for i, b := range blocks {
				data := whole[i*BlockSize : (i+1)*BlockSize]
				switch rng.Intn(8) {
				case 0:
					data = data[:rng.Intn(BlockSize)] // short: zero-padded
				case 1:
					data = append([]byte(nil), data...) // not where its neighbours lie
				case 2:
					if rng.Intn(4) == 0 {
						data = make([]byte, BlockSize+1) // refused
					}
				}
				batch[i] = BlockWrite{Block: b, Data: data, Ver: uint64(round*100 + i + 1)}
			}
			got, want := vec.WriteV(batch), writeLoop(scalar, batch)
			for i := range batch {
				if (got[i] == nil) != (want[i] == nil) {
					t.Fatalf("seed %d round %d entry %d (block %d, %d bytes): WriteV %v, Write %v",
						seed, round, i, batch[i].Block, len(batch[i].Data), got[i], want[i])
				}
			}
		}
		for _, name := range []string{dataFileName, metaFileName} {
			a, err := os.ReadFile(filepath.Join(dirs[0], name))
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(filepath.Join(dirs[1], name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("seed %d: %s differs between run staging (%d bytes) and per-block staging (%d bytes)", seed, name, len(a), len(b))
			}
		}
		for b := uint64(0); b < capacity; b++ {
			if vec.index[b] != scalar.index[b] {
				t.Fatalf("seed %d: block %d indexed as %+v by WriteV, %+v by Write", seed, b, vec.index[b], scalar.index[b])
			}
		}
		vec.Close()
		scalar.Close()
	}
}

// TestWriteVRunCostsTwoPwrites: four adjacent blocks are one run whether
// their payloads lie end to end or not, and a gap makes two.
func TestWriteVRunCostsTwoPwrites(t *testing.T) {
	reg := stats.NewRegistry()
	f, err := Open(t.TempDir(), Options{Blocks: 64, NoSync: true, Registry: reg, StatsPrefix: "m."})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	whole := make([]byte, 4*BlockSize)
	for _, tc := range []struct {
		name   string
		blocks []uint64
		cut    bool // payloads cut from one buffer
		runs   uint64
	}{
		{"contiguous", []uint64{8, 9, 10, 11}, true, 1},
		{"scattered", []uint64{8, 9, 10, 11}, false, 1},
		{"gap", []uint64{8, 9, 20, 21}, true, 2},
	} {
		batch := make([]BlockWrite, len(tc.blocks))
		for i, b := range tc.blocks {
			data := stamp(b, 2)
			if tc.cut {
				data = whole[i*BlockSize : (i+1)*BlockSize]
				copy(data, stamp(b, 2))
			}
			batch[i] = BlockWrite{Block: b, Data: data, Ver: 2}
		}
		r0, b0 := reg.CounterValue("m.write_runs"), reg.CounterValue("m.write_run_blocks")
		for _, err := range f.WriteV(batch) {
			if err != nil {
				t.Fatal(err)
			}
		}
		if runs, n := reg.CounterValue("m.write_runs")-r0, reg.CounterValue("m.write_run_blocks")-b0; runs != tc.runs || n != 4 {
			t.Errorf("%s: %d blocks staged in %d runs, want 4 in %d", tc.name, n, runs, tc.runs)
		}
		for _, b := range tc.blocks {
			if data, ver, ok, err := f.Read(b); err != nil || !ok || ver != 2 || !bytes.Equal(data, stamp(b, 2)) {
				t.Fatalf("%s: block %d: ok=%v ver=%d err=%v", tc.name, b, ok, ver, err)
			}
		}
	}
}

// TestWriteVCrashBetweenRunPwrites stops a run between its data pwrite
// and its trailer pwrite — the meta file turns read-only under the store,
// which is as far as a process that died there would have got. Nothing
// of the run is acknowledged or indexed, the running store refuses the
// blocks it half overwrote, and recovery reports the run torn block by
// block and everything around it intact.
func TestWriteVCrashBetweenRunPwrites(t *testing.T) {
	dir := t.TempDir()
	f := openTemp(t, dir, 32)
	for b := uint64(0); b < 8; b++ {
		if err := f.Write(b, stamp(b, 1), 1); err != nil {
			t.Fatal(err)
		}
	}
	f.meta.Close()
	var err error
	if f.meta, err = os.Open(filepath.Join(dir, metaFileName)); err != nil {
		t.Fatal(err)
	}
	run := []uint64{2, 3, 4, 5}
	batch := make([]BlockWrite, len(run))
	for i, b := range run {
		batch[i] = BlockWrite{Block: b, Data: stamp(b, 2), Ver: 2}
	}
	for i, err := range f.WriteV(batch) {
		if err == nil {
			t.Fatalf("block %d acknowledged without its trailer", run[i])
		}
	}
	for _, b := range run {
		if st := f.index[b]; st.ver != 1 || st.torn {
			t.Fatalf("block %d indexed as %+v before any commit", b, st)
		}
		if _, _, _, err := f.Read(b); !errors.Is(err, ErrTorn) {
			t.Fatalf("block %d: new data under the old trailer was served: %v", b, err)
		}
	}
	f.Close()

	g := openTemp(t, dir, 32)
	rep := g.Recovery()
	if fmt.Sprint(rep.Torn) != fmt.Sprint(run) || rep.Verified != 4 {
		t.Fatalf("recovery found %v, want torn %v and 4 verified", rep, run)
	}
	for b := uint64(0); b < 8; b++ {
		data, ver, _, err := g.Read(b)
		if b >= 2 && b <= 5 {
			if !errors.Is(err, ErrTorn) {
				t.Fatalf("block %d after recovery: %v", b, err)
			}
			continue
		}
		if err != nil || ver != 1 || !bytes.Equal(data, stamp(b, 1)) {
			t.Fatalf("untouched block %d after recovery: ver=%d err=%v", b, ver, err)
		}
	}
}
