package disk

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestReadVFencedAllocatesNoPayload: a refusal is judged before there is a
// payload, so a fenced client retrying 32-block windows costs the disk a
// reply and its errno vector — not 128 KiB a time.
func TestReadVFencedAllocatesNoPayload(t *testing.T) {
	d := New(9, Config{Blocks: 64}, sim.NewScheduler(1).NewClock(1, 0),
		func(msg.NodeID, msg.Message) {}, stats.NewRegistry(), Observer{})
	d.Deliver(msg.Envelope{From: 100, To: 9, Payload: &msg.FenceSet{Admin: 100, Req: 1, Authority: 100, Target: 1, Below: 1}})
	window := &msg.DiskReadV{Client: 1, Authority: 100, Req: 2, Blocks: make([]uint64, 32)}
	for i := range window.Blocks {
		window.Blocks[i] = uint64(i)
	}
	env := msg.Envelope{From: 1, To: 9, Payload: window}
	if allocs := testing.AllocsPerRun(100, func() { d.Deliver(env) }); allocs > 2 {
		t.Errorf("a fenced 32-block DiskReadV made %.0f allocations, want 2: the reply and its Errs", allocs)
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		d.Deliver(env)
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp >= 512 {
		t.Errorf("a fenced 32-block DiskReadV allocated %d bytes; the payload it does not send is %d", perOp, 32*BlockSize)
	}
}

// TestReadVNothingInRange: a request with no block the device has is
// refused like a fenced one, without a payload.
func TestReadVNothingInRange(t *testing.T) {
	r := newRig(t, Config{Blocks: 4}, Observer{})
	r.deliver(&msg.DiskReadV{Client: 1, Req: 1, Blocks: []uint64{4, 9}})
	res := r.last().(*msg.DiskReadVRes)
	if res.Err != msg.ErrRange || res.Errs[0] != msg.ErrRange || res.Errs[1] != msg.ErrRange || res.Data != nil {
		t.Fatalf("err=%v errs=%v payload=%d bytes", res.Err, res.Errs, len(res.Data))
	}
}

// TestReadVJudgesEveryBlock holds the vectored path to what the scalar one
// does per block, over file media: range, hole, decay found by the
// checksum, the version stamp, the observer's Served and Torn, the reads
// and media_errors counters — with the blocks that can be served coming
// out of as few preads as their numbers allow.
func TestReadVJudgesEveryBlock(t *testing.T) {
	dir := t.TempDir()
	reg := stats.NewRegistry()
	media, err := blockstore.Open(dir, blockstore.Options{Blocks: 16, NoSync: true, Registry: reg, StatsPrefix: "media."})
	if err != nil {
		t.Fatal(err)
	}
	defer media.Close()
	content := func(b uint64) []byte { return bytes.Repeat([]byte{byte(b) + 1}, BlockSize) }
	for _, b := range []uint64{0, 1, 2, 3, 4} {
		if err := media.Write(b, content(b), 100+b); err != nil {
			t.Fatal(err)
		}
	}
	// Block 2 decays behind the store's back.
	f, err := os.OpenFile(blockstore.DataPath(dir), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xEE}, blockstore.DataOffset(2)+77); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var served, torn []string
	var replies []msg.Message
	d := New(9, Config{Blocks: 16}, sim.NewScheduler(1).NewClock(1, 0),
		func(_ msg.NodeID, m msg.Message) { replies = append(replies, m) }, reg,
		Observer{
			Served: func(_ msg.NodeID, block, ver uint64, reader msg.NodeID) {
				served = append(served, fmt.Sprintf("%d@%d→%v", block, ver, reader))
			},
			Torn: func(_ msg.NodeID, block uint64) { torn = append(torn, fmt.Sprint(block)) },
		}, WithMedia(media))

	blocks := []uint64{0, 1, 2, 3, 99, 7, 1}
	d.Deliver(msg.Envelope{From: 5, To: 9, Payload: &msg.DiskReadV{Client: 5, Req: 1, Blocks: blocks}})
	res := replies[0].(*msg.DiskReadVRes)

	wantErrs := []msg.Errno{msg.OK, msg.OK, msg.ErrTorn, msg.OK, msg.ErrRange, msg.OK, msg.OK}
	wantVers := []uint64{100, 101, 0, 103, 0, 0, 101}
	if fmt.Sprint(res.Errs) != fmt.Sprint(wantErrs) || res.Err != msg.ErrTorn {
		t.Fatalf("errs = %v (first %v), want %v", res.Errs, res.Err, wantErrs)
	}
	if fmt.Sprint(res.Vers) != fmt.Sprint(wantVers) {
		t.Fatalf("vers = %v, want %v", res.Vers, wantVers)
	}
	if len(res.Data) != len(blocks)*BlockSize {
		t.Fatalf("payload of %d bytes for %d blocks", len(res.Data), len(blocks))
	}
	for i, b := range blocks {
		want := make([]byte, BlockSize) // refused or never written: zeros
		if wantErrs[i] == msg.OK && b != 7 {
			want = content(b)
		}
		if !bytes.Equal(res.Data[i*BlockSize:(i+1)*BlockSize], want) {
			t.Errorf("slot %d (block %d) holds the wrong bytes", i, b)
		}
	}
	if want := "[0@100→n5 1@101→n5 3@103→n5 7@0→n5 1@101→n5]"; fmt.Sprint(served) != want {
		t.Errorf("Served saw %v, want %v", served, want)
	}
	if fmt.Sprint(torn) != "[2]" {
		t.Errorf("Torn saw %v, want [2]", torn)
	}
	if got := reg.CounterValue("disk.n9.reads"); got != 6 {
		t.Errorf("reads = %d, want one per block in range (6)", got)
	}
	if got := reg.CounterValue("disk.n9.media_errors"); got != 1 {
		t.Errorf("media_errors = %d, want 1", got)
	}
	// 0,1,2,3 are one pread (the decay is found after it); 7 is a hole; the
	// second 1 is a run of its own.
	if runs, n := reg.CounterValue("media.read_runs"), reg.CounterValue("media.read_run_blocks"); runs != 2 || n != 5 {
		t.Errorf("%d blocks came out of %d preads, want 5 out of 2", n, runs)
	}
}
