package rpcnet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/disk"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The crash harness: a real disk-node process is SIGKILLed mid
// write-burst and restarted from the same data directory, and the
// survivors are checked against the paper's durability contract —
// every acknowledged write is readable with its contents and version, a
// write torn by the crash is detected (EvDisk "torn") and refused
// rather than served, and a client fenced before the crash is still
// fenced after it. The disk node runs as a child process (this test
// binary re-executed with TANK_DISK_HELPER=1) so the kill is a genuine
// process death, not a polite shutdown.

const (
	crashBlocks = 256
	crashDiskID = msg.NodeID(1000)
	adminID     = msg.NodeID(10)
	fencedID    = msg.NodeID(77)
)

// crashPayload is block b's deterministic contents (first 512 bytes;
// the media zero-pads the rest of the 4 KiB block).
func crashPayload(b uint64) []byte {
	p := make([]byte, 512)
	for i := range p {
		p[i] = byte(b*31 + uint64(i)*7 + 1)
	}
	return p
}

// TestDiskNodeHelper is not a test: it is the disk-node child process.
// Gated on TANK_DISK_HELPER so a normal `go test` run passes through.
func TestDiskNodeHelper(t *testing.T) {
	if os.Getenv("TANK_DISK_HELPER") != "1" {
		return
	}
	dir := os.Getenv("TANK_DIR")
	media, err := blockstore.Open(dir, blockstore.Options{Blocks: crashBlocks})
	if err != nil {
		fmt.Printf("HELPER-ERR open: %v\n", err)
		os.Exit(1)
	}
	tf, err := os.OpenFile(filepath.Join(dir, "trace.jsonl"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		fmt.Printf("HELPER-ERR trace: %v\n", err)
		os.Exit(1)
	}
	tracer := trace.New(trace.NewJSONL(tf))
	topo := Topology{Disks: map[msg.NodeID]string{crashDiskID: "127.0.0.1:0"}}
	dn, err := StartDiskNode(NodeSpec{ID: crashDiskID, Topo: topo},
		disk.Config{Blocks: crashBlocks}, WithMedia(media), WithTracer(tracer))
	if err != nil {
		fmt.Printf("HELPER-ERR start: %v\n", err)
		os.Exit(1)
	}
	// The parent parses this line; everything above is already durable.
	fmt.Printf("ADDR %v\n", dn.Addr)
	select {}
}

// sanClient is a raw SAN endpoint for the harness: it dials the disk
// node, funnels replies into a channel, and resends until answered
// (datagram semantics — a reply can be lost to the kill).
type sanClient struct {
	tr      *Transport
	replies chan msg.Message
}

func newSANClient(t *testing.T, self msg.NodeID, diskAddr string) *sanClient {
	t.Helper()
	c := &sanClient{replies: make(chan msg.Message, 64)}
	c.tr = New(self, map[msg.NodeID]string{crashDiskID: diskAddr},
		func(env msg.Envelope) {
			// The harness keeps payloads (and their data slices) past the
			// handler's return; retaining the borrow keeps any pooled
			// receive buffer they alias out of circulation for good.
			env.Retain()
			c.replies <- env.Payload
		})
	go c.tr.Run()
	t.Cleanup(c.tr.Close)
	return c
}

// call sends m until a reply matching want arrives, or the deadline
// passes (nil return).
func (c *sanClient) call(m msg.Message, want func(msg.Message) bool) msg.Message {
	deadline := time.After(5 * time.Second)
	for {
		c.tr.Send(crashDiskID, m)
		resend := time.After(200 * time.Millisecond)
		for {
			select {
			case r := <-c.replies:
				if want(r) {
					return r
				}
			case <-resend:
			case <-deadline:
				return nil
			}
			break
		}
	}
}

// read reads block, stamped as registered at epoch 1 with the authority
// adminID speaks for.
func (c *sanClient) read(req msg.ReqID, block uint64) *msg.DiskReadRes {
	r := c.call(&msg.DiskRead{Client: c.tr.self, Authority: adminID, Epoch: 1, Req: req, Block: block},
		func(m msg.Message) bool {
			res, ok := m.(*msg.DiskReadRes)
			return ok && res.Req == req
		})
	if r == nil {
		return nil
	}
	return r.(*msg.DiskReadRes)
}

// startCrashHelper launches the disk-node child on dir and returns the
// process and its SAN address.
func startCrashHelper(t *testing.T, dir string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestDiskNodeHelper$")
	cmd.Env = append(os.Environ(), "TANK_DISK_HELPER=1", "TANK_DIR="+dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "HELPER-ERR") {
			t.Fatalf("helper: %s", line)
		}
		if addr, ok := strings.CutPrefix(line, "ADDR "); ok {
			// Keep draining stdout so the child never blocks on a full pipe.
			go func() {
				for sc.Scan() {
				}
			}()
			return cmd, addr
		}
	}
	t.Fatalf("helper exited without printing ADDR")
	return nil, ""
}

func TestCrashRestartDurability(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash harness")
	}
	dir := t.TempDir()
	helper, addr := startCrashHelper(t, dir)

	// Fence client 77's I/O below epoch 2 before the crash; assertion (c)
	// checks the fence survives the restart, at that epoch.
	admin := newSANClient(t, adminID, addr)
	if r := admin.call(&msg.FenceSet{Admin: adminID, Req: 1, Authority: adminID, Target: fencedID, Below: 2},
		func(m msg.Message) bool { _, ok := m.(*msg.FenceRes); return ok }); r == nil {
		t.Fatal("no FenceRes")
	} else if res := r.(*msg.FenceRes); res.Err != msg.OK {
		t.Fatalf("fence err = %v", res.Err)
	}
	fenced := newSANClient(t, fencedID, addr)
	if res := fenced.read(2, 0); res == nil || res.Err != msg.ErrFenced {
		t.Fatalf("pre-crash fenced read = %+v, want ErrFenced", res)
	}

	// Fire a 40-write burst without waiting for individual ACKs, collect
	// ACKs as they stream back, and SIGKILL the node once at least half
	// are in — writes genuinely in flight die with the process.
	const burst = 40
	for b := uint64(0); b < burst; b++ {
		admin.tr.Send(crashDiskID, &msg.DiskWrite{Client: adminID,
			Req: msg.ReqID(100 + b), Block: b, Data: crashPayload(b), Ver: b + 1})
	}
	acked := map[uint64]bool{}
	timeout := time.After(10 * time.Second)
collect:
	for len(acked) < burst/2 {
		select {
		case r := <-admin.replies:
			if res, ok := r.(*msg.DiskWriteRes); ok && res.Err == msg.OK && res.Req >= 100 {
				acked[uint64(res.Req-100)] = true
			}
		case <-timeout:
			break collect
		}
	}
	if len(acked) < 2 {
		t.Fatalf("only %d writes acknowledged before kill", len(acked))
	}
	helper.Process.Kill()
	helper.Wait()

	// Tear one ACKed block the way a crash mid-pwrite would: part of the
	// data overwritten, trailer (and hence CRC) stale. Assertion (a)
	// covers every other ACKed block; the torn one drives (b).
	var torn uint64
	for b := range acked {
		if b > torn {
			torn = b
		}
	}
	df, err := os.OpenFile(blockstore.DataPath(dir), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := df.WriteAt(bytes.Repeat([]byte{0xFF}, 1000),
		blockstore.DataOffset(torn)); err != nil {
		t.Fatal(err)
	}
	df.Close()

	// Restart from the same directory.
	helper2, addr2 := startCrashHelper(t, dir)
	admin2 := newSANClient(t, adminID+1, addr2)

	// (a) Every ACKed write except the torn block reads back with the
	// exact contents and version stamp.
	req := msg.ReqID(1)
	for b := range acked {
		if b == torn {
			continue
		}
		res := admin2.read(req, b)
		req++
		if res == nil || res.Err != msg.OK {
			t.Fatalf("post-restart read of ACKed block %d = %+v", b, res)
		}
		want := crashPayload(b)
		if !bytes.Equal(res.Data[:len(want)], want) ||
			!bytes.Equal(res.Data[len(want):], make([]byte, disk.BlockSize-len(want))) {
			t.Fatalf("block %d: ACKed contents lost across crash", b)
		}
		if res.Ver != b+1 {
			t.Fatalf("block %d: ver = %d, want %d", b, res.Ver, b+1)
		}
	}

	// (b) The torn block is refused with a media error, not served stale.
	res := admin2.read(req, torn)
	req++
	if res == nil || res.Err != msg.ErrTorn {
		t.Fatalf("torn block read = %+v, want ErrTorn", res)
	}

	// (c) The client fenced before the crash is still rejected.
	fenced2 := newSANClient(t, fencedID, addr2)
	if res := fenced2.read(req, 0); res == nil || res.Err != msg.ErrFenced {
		t.Fatalf("post-restart fenced read = %+v, want ErrFenced", res)
	}

	helper2.Process.Kill()
	helper2.Wait()

	// The trace stream must show the recovery pass reporting the torn
	// block (EvDisk "torn" with the block number) and the fence replay.
	evs := readTrace(t, filepath.Join(dir, "trace.jsonl"))
	var sawTorn, sawReplay, sawRecovered bool
	for _, e := range evs {
		if e.Type != trace.EvDisk {
			continue
		}
		switch {
		case e.Note == "torn" && e.Block == torn:
			sawTorn = true
		case strings.HasPrefix(e.Note, "fence-replay") && e.Peer == fencedID && e.Epoch == 2:
			sawReplay = true
		case strings.HasPrefix(e.Note, "recovered "):
			sawRecovered = true
		}
	}
	if !sawRecovered || !sawTorn || !sawReplay {
		t.Fatalf("trace missing recovery evidence: recovered=%v torn=%v fence-replay=%v",
			sawRecovered, sawTorn, sawReplay)
	}

	// Belt and braces: reopen the store in-process and check the media
	// state directly (PeekBlock path), including the persisted fence.
	media, err := blockstore.Open(dir, blockstore.Options{Blocks: crashBlocks})
	if err != nil {
		t.Fatal(err)
	}
	defer media.Close()
	if fl := media.Fences().Floor(adminID, fencedID); fl != 2 {
		t.Fatalf("fence persisted in media at %d, want 2", fl)
	}
	clock := sim.NewScheduler(1).NewClock(1, 0)
	d := disk.New(crashDiskID, disk.Config{Blocks: crashBlocks}, clock,
		func(msg.NodeID, msg.Message) {}, nil, disk.Observer{}, disk.WithMedia(media))
	for b := range acked {
		data, ver, ok := d.PeekBlock(b)
		if b == torn {
			if ok {
				t.Fatal("PeekBlock served the torn block")
			}
			continue
		}
		want := crashPayload(b)
		if !ok || ver != b+1 || !bytes.Equal(data[:len(want)], want) {
			t.Fatalf("PeekBlock(%d) = ok=%v ver=%d", b, ok, ver)
		}
	}
}

// readTrace parses a JSONL trace file, tolerating a final line torn by
// the kill.
func readTrace(t *testing.T, path string) []trace.Event {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var evs []trace.Event
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e trace.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			continue
		}
		evs = append(evs, e)
	}
	return evs
}
