package rpcnet

import (
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/disk"
	"repro/internal/msg"
	"repro/internal/server"
)

// gatedMedia is a media whose Write parks on gate, and which records a
// Close that arrives while a Write is inside it.
type gatedMedia struct {
	blockstore.Media
	entered chan struct{}
	gate    chan struct{}
	writing atomic.Bool
	closed  atomic.Bool
	// closedUnderWrite is what the test is about.
	closedUnderWrite atomic.Bool
}

func (m *gatedMedia) Write(block uint64, data []byte, ver uint64) error {
	m.writing.Store(true)
	close(m.entered)
	<-m.gate
	err := m.Media.Write(block, data, ver)
	m.writing.Store(false)
	return err
}

func (m *gatedMedia) Close() error {
	if m.writing.Load() {
		m.closedUnderWrite.Store(true)
	}
	m.closed.Store(true)
	return m.Media.Close()
}

// TestDiskNodeCloseWaitsForTheWriteInFlight: DiskNode.Close closed the
// executor — which only set a flag — and then the media, while a write
// delivered a moment earlier could still be inside the media on the
// executor. The media must stay open until the request that is in it has
// returned, whichever goroutine is running it.
func TestDiskNodeCloseWaitsForTheWriteInFlight(t *testing.T) {
	const diskID, clientID = msg.NodeID(1000), msg.NodeID(10)
	media := &gatedMedia{Media: blockstore.NewMem(), entered: make(chan struct{}), gate: make(chan struct{})}
	topo := Topology{Server: 1, Disks: map[msg.NodeID]string{diskID: Loopback()}}
	dn, err := StartDiskNode(NodeSpec{ID: diskID, Topo: topo}, disk.Config{Blocks: 64}, WithMedia(media))
	if err != nil {
		t.Fatal(err)
	}
	tr := New(clientID, map[msg.NodeID]string{diskID: dn.Addr.String()}, func(msg.Envelope) {})
	go tr.Run()
	defer tr.Close()
	tr.Send(diskID, &msg.DiskWrite{Client: clientID, Req: 1, Block: 3, Data: make([]byte, disk.BlockSize), Ver: 1})
	select {
	case <-media.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the write never reached the media")
	}

	closed := make(chan struct{})
	go func() {
		defer close(closed)
		dn.Close()
	}()
	select {
	case <-closed:
		t.Error("DiskNode.Close returned while a write was inside the media")
	case <-time.After(50 * time.Millisecond):
	}
	if media.closed.Load() {
		t.Error("the media was closed while a write was inside it")
	}
	close(media.gate)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("DiskNode.Close did not return once the write had")
	}
	if media.closedUnderWrite.Load() || !media.closed.Load() {
		t.Errorf("media closed under the write: %v, closed at all: %v", media.closedUnderWrite.Load(), media.closed.Load())
	}
}

// TestServerNodeCloseReleasesTheJournal: ServerNode.Close submitted the
// server's Stop and returned without waiting for it, so a successor could
// open the metadata journal while its predecessor, still behind a queued
// request, had yet to let go of it. Close returns only when the server is
// retired; a second server on the same files then opens them cleanly and
// finds what the first committed.
func TestServerNodeCloseReleasesTheJournal(t *testing.T) {
	cfg := server.Config{
		Core:        liveCore(),
		Disks:       map[msg.NodeID]uint64{1000: 1 << 12},
		MetaPersist: filepath.Join(t.TempDir(), "meta.json"),
	}
	spec := NodeSpec{ID: 1, Topo: Topology{Server: 1, ServerAddr: Loopback(), Disks: map[msg.NodeID]string{}}}
	first, err := StartServerNode(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One committed mutation, and then a task that holds the executor as a
	// slow request would.
	held, gate := make(chan struct{}), make(chan struct{})
	first.Exec.Submit(func() {
		st := first.Srv.Store()
		if _, errno := st.Create("/f", false); errno != msg.OK {
			t.Errorf("create: %v", errno)
		}
		if err := st.Commit(); err != nil {
			t.Errorf("commit: %v", err)
		}
		close(held)
		<-gate
	})
	<-held
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		first.Close()
	}()
	select {
	case <-closed:
		t.Error("ServerNode.Close returned with a task still running and the server not retired")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("ServerNode.Close did not return once the executor had drained")
	}
	if !first.Srv.Stopped() {
		t.Fatal("ServerNode.Close returned before the server was retired: its journal is still open")
	}

	second, err := StartServerNode(spec, cfg)
	if err != nil {
		t.Fatalf("a second server on the same files: %v", err)
	}
	defer second.Close()
	found := make(chan msg.Errno, 1)
	second.Exec.Submit(func() {
		_, errno := second.Srv.Store().Lookup("/f")
		found <- errno
	})
	if errno := <-found; errno != msg.OK {
		t.Fatalf("the successor does not have the file its predecessor committed: %v", errno)
	}
}
