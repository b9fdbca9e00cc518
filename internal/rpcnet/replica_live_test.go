package rpcnet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/msg"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/trace"
)

// The replica chaos harness: three real server processes negotiate the
// authority lease over TCP, the active one is SIGKILLed mid-traffic, and
// the takeover is judged from the JSONL traces the processes leave
// behind — a peer must hold the lease within the bounded window, no
// acknowledged write may be lost, no client is fenced twice, and
// Theorem 3.1 holds when the steal fires on a different replica than the
// one the victim's lease was minted against. Each replica runs as a
// child process (this test binary re-executed with
// TANK_REPLICA_HELPER=1) so the kill is a genuine process death.

// repLeaseTerm is the authority-lease term the harness runs with: short
// enough to keep the test fast, long enough to dwarf loopback RTTs.
const repLeaseTerm = time.Second

// liveReplicaCore returns the protocol timing both the parent and the
// helper processes must agree on.
func liveReplicaCore() core.Config {
	cfg := core.DefaultConfig()
	cfg.Tau = 1500 * time.Millisecond
	cfg.RetryInterval = 100 * time.Millisecond
	return cfg
}

// openRetry and readRetry tolerate transient ErrStale around the
// takeover: mid-revival a client's call can race its own
// re-registration, and a demand against a holder that is itself still
// re-asserting fails retryably. ErrStale is the protocol's
// "retry later" errno — the app-level contract is retry, so the
// harness retries, on a deadline.
func (lc *liveCluster) openRetry(t *testing.T, i int, path string, write, create bool) msg.Handle {
	t.Helper()
	cn := lc.clients[i]
	deadline := time.Now().Add(15 * time.Second)
	for {
		type res struct {
			h     msg.Handle
			errno msg.Errno
		}
		ch := make(chan res, 1)
		cn.Do(func() {
			cn.Client.Open(path, write, create, func(h msg.Handle, _ msg.Attr, e msg.Errno) {
				ch <- res{h, e}
			})
		})
		select {
		case r := <-ch:
			if r.errno == msg.OK {
				return r.h
			}
			if r.errno != msg.ErrStale || time.Now().After(deadline) {
				t.Fatalf("open %s: %v", path, r.errno)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("open %s timed out", path)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func (lc *liveCluster) readRetry(t *testing.T, i int, h msg.Handle, idx uint64) []byte {
	t.Helper()
	cn := lc.clients[i]
	deadline := time.Now().Add(15 * time.Second)
	for {
		type res struct {
			data  []byte
			errno msg.Errno
		}
		ch := make(chan res, 1)
		cn.Do(func() { cn.Client.Read(h, idx, func(d []byte, e msg.Errno) { ch <- res{d, e} }) })
		select {
		case r := <-ch:
			if r.errno == msg.OK {
				return r.data
			}
			if r.errno != msg.ErrStale || time.Now().After(deadline) {
				t.Fatalf("read: %v", r.errno)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("read timed out")
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func (lc *liveCluster) writeRetry(t *testing.T, i int, h msg.Handle, idx uint64, data []byte) {
	t.Helper()
	cn := lc.clients[i]
	deadline := time.Now().Add(15 * time.Second)
	for {
		ch := make(chan msg.Errno, 1)
		cn.Do(func() { cn.Client.Write(h, idx, data, func(e msg.Errno) { ch <- e }) })
		select {
		case e := <-ch:
			if e == msg.OK {
				return
			}
			if e != msg.ErrStale || time.Now().After(deadline) {
				t.Fatalf("write: %v", e)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("write timed out")
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestReplicaServerHelper is not a test: it is one replica-server child
// process. Gated on TANK_REPLICA_HELPER so a normal `go test` run
// passes through.
func TestReplicaServerHelper(t *testing.T) {
	if os.Getenv("TANK_REPLICA_HELPER") != "1" {
		return
	}
	var topo Topology
	if err := json.Unmarshal([]byte(os.Getenv("TANK_TOPO")), &topo); err != nil {
		fmt.Printf("HELPER-ERR topo: %v\n", err)
		os.Exit(1)
	}
	selfInt, err := strconv.Atoi(os.Getenv("TANK_SELF"))
	if err != nil {
		fmt.Printf("HELPER-ERR self: %v\n", err)
		os.Exit(1)
	}
	self := msg.NodeID(selfInt)
	dir := os.Getenv("TANK_DIR")
	tf, err := os.OpenFile(filepath.Join(dir, fmt.Sprintf("trace-%d.jsonl", self)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		fmt.Printf("HELPER-ERR trace: %v\n", err)
		os.Exit(1)
	}
	caps := map[msg.NodeID]uint64{}
	for id := range topo.Disks {
		caps[id] = 1 << 12
	}
	topo.Server = self
	topo.ServerAddr = topo.Servers[self]
	sn, err := StartServerNode(NodeSpec{ID: self, Topo: topo}, server.Config{
		Core:  liveReplicaCore(),
		Disks: caps,
		// Diskless negotiation, durable namespace: every replica recovers
		// the shared snapshot + journal on activation and the active
		// commits the journal before each reply.
		Replica:     &replica.Config{LeaseTerm: repLeaseTerm},
		MetaPersist: filepath.Join(dir, "meta.json"),
	}, WithTracer(trace.New(trace.NewJSONL(tf))))
	if err != nil {
		fmt.Printf("HELPER-ERR start: %v\n", err)
		os.Exit(1)
	}
	// Trace timestamps under the live transport are ns since the node's
	// clock was created (a moment ago); the anchor lets the parent rebase
	// every process's events onto one shared wall clock.
	os.WriteFile(filepath.Join(dir, fmt.Sprintf("base-%d", self)),
		[]byte(strconv.FormatInt(time.Now().UnixNano(), 10)), 0o644)
	// The parent parses this line; the listener above is already up.
	fmt.Printf("ADDR %v\n", sn.Addr)
	select {}
}

// freeAddr reserves an ephemeral loopback port and releases it: replica
// addresses must be in the shared topology before any process starts.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// replicaProc is one replica child process; exited closes once it is
// gone.
type replicaProc struct {
	cmd    *exec.Cmd
	exited chan struct{}
}

// startReplicaHelper launches replica id as a child process and waits
// for its listener.
func startReplicaHelper(t *testing.T, dir string, id msg.NodeID, topo Topology) replicaProc {
	t.Helper()
	tj, err := json.Marshal(topo)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^TestReplicaServerHelper$")
	cmd.Env = append(os.Environ(),
		"TANK_REPLICA_HELPER=1",
		"TANK_SELF="+strconv.Itoa(int(id)),
		"TANK_TOPO="+string(tj),
		"TANK_DIR="+dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	ef, err := os.Create(filepath.Join(dir, fmt.Sprintf("stderr-%d.log", id)))
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = ef
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// One goroutine owns Wait (the test may SIGKILL the child long before
	// cleanup); cleanup must not return until the child is truly gone, or
	// its trace writes race the TempDir removal.
	exited := make(chan struct{})
	go func() { cmd.Wait(); close(exited) }()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-exited
	})
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "HELPER-ERR") {
			t.Fatalf("replica %v helper: %s", id, line)
		}
		if strings.HasPrefix(line, "ADDR ") {
			go func() {
				for sc.Scan() {
				}
			}()
			return replicaProc{cmd, exited}
		}
	}
	t.Fatalf("replica %v helper exited without printing ADDR", id)
	return replicaProc{}
}

// loadBase reads a process's wall-clock anchor (ns since the Unix
// epoch, written at node startup), or 0 if the file is not there yet.
func loadBase(dir string, id msg.NodeID) int64 {
	b, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("base-%d", id)))
	if err != nil {
		return 0
	}
	n, _ := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
	return n
}

// rebase shifts a process's event timestamps from "ns since its own
// start" onto the shared wall clock "ns since epoch0". TC1 is in the
// same clock domain but zero means unset.
func rebase(evs []trace.Event, baseNS, epoch0 int64) []trace.Event {
	d := time.Duration(baseNS - epoch0)
	for i := range evs {
		evs[i].Time = evs[i].Time.Add(d)
		if evs[i].TC1 != 0 {
			evs[i].TC1 = evs[i].TC1.Add(d)
		}
	}
	return evs
}

// replicaTraces merges every per-process JSONL trace in dir, rebased
// onto the wall clock so cross-process ordering is meaningful.
func replicaTraces(t *testing.T, dir string, group []msg.NodeID, epoch0 int64) []trace.Event {
	t.Helper()
	var evs []trace.Event
	for _, id := range group {
		path := filepath.Join(dir, fmt.Sprintf("trace-%d.jsonl", id))
		if _, err := os.Stat(path); err != nil {
			continue
		}
		evs = append(evs, rebase(readTrace(t, path), loadBase(dir, id), epoch0)...)
	}
	return evs
}

// findActiveReplica polls the children's trace streams until exactly one
// replica shows authority-lease grants, and returns it.
func findActiveReplica(t *testing.T, dir string, group []msg.NodeID) msg.NodeID {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		holders := map[msg.NodeID]bool{}
		for _, e := range replicaTraces(t, dir, group, 0) {
			switch e.Type {
			case trace.EvReplicaLeaseGranted:
				holders[e.Node] = true
			case trace.EvReplicaStepdown:
				delete(holders, e.Node)
			}
		}
		if len(holders) == 1 {
			for id := range holders {
				return id
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatal("no single active replica emerged in the trace streams")
	return msg.None
}

func TestLiveReplicaFailoverSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos harness")
	}
	dir := t.TempDir()
	cfg := liveReplicaCore()

	// The SAN survives in-parent: the harness kills metadata servers, and
	// the paper's design keeps disks independent of the authority.
	const diskID = msg.NodeID(5000)
	dtopo := Topology{Disks: map[msg.NodeID]string{diskID: Loopback()}}
	dn, err := StartDiskNode(NodeSpec{ID: diskID, Topo: dtopo}, disk.Config{Blocks: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dn.Close)

	group := []msg.NodeID{1, 101, 201}
	topo := Topology{
		Server:        1,
		Servers:       map[msg.NodeID]string{},
		ReplicaGroups: map[msg.NodeID][]msg.NodeID{1: group},
		Disks:         map[msg.NodeID]string{diskID: dn.Addr.String()},
	}
	for _, id := range group {
		topo.Servers[id] = freeAddr(t)
	}
	topo.ServerAddr = topo.Servers[1]
	helpers := map[msg.NodeID]replicaProc{}
	for _, id := range group {
		helpers[id] = startReplicaHelper(t, dir, id, topo)
	}
	// Every live member boots warming up, so the group elects one
	// acquisition timeout after it starts. A client that registered
	// before that would hold a lease dated from its first, unanswered
	// send: nearly spent on arrival.
	findActiveReplica(t, dir, group)

	// The parent's two clients share one JSONL stream so their events
	// merge with the children's by wall-clock time.
	ctf, err := os.OpenFile(filepath.Join(dir, "trace-clients.jsonl"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	tracer := trace.New(trace.NewJSONL(ctf))
	lc := &liveCluster{}
	clientBase := map[msg.NodeID]int64{}
	for i := 0; i < 2; i++ {
		cn, err := StartClientNode(NodeSpec{ID: msg.NodeID(10 + i), Topo: topo},
			client.Config{Core: cfg}, WithTracer(tracer))
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		clientBase[msg.NodeID(10+i)] = time.Now().UnixNano()
		t.Cleanup(cn.Close)
		lc.clients = append(lc.clients, cn)
	}
	lc.start(t, 0)
	lc.start(t, 1)

	h0 := lc.open(t, 0, "/rep.txt", true, true)
	payload := []byte("acked-before-kill")
	lc.write(t, 0, h0, 0, payload)
	lc.sync(t, 0) // acknowledged and on the SAN
	// Acknowledged creates: each is one journal record the successor has
	// to replay, since the active checkpointed only when it activated.
	acked := []string{"/rep.txt"}
	for i := 0; i < 5; i++ {
		path := fmt.Sprintf("/acked-%d", i)
		lc.open(t, 1, path, false, true)
		acked = append(acked, path)
	}

	// SIGKILL the active mid-traffic.
	active := findActiveReplica(t, dir, group)
	killedAt := time.Now()
	helpers[active].cmd.Process.Kill()

	// Make the kill land mid-append: once the victim is gone, leave half
	// a record at the journal's tail — a header promising 64 bytes and 20
	// of them — as a write(2) cut short by the kill would. The successor
	// must drop it and keep every record before it.
	<-helpers[active].exited
	tail := append([]byte{64, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef}, make([]byte, 20)...)
	jf, err := os.OpenFile(filepath.Join(dir, "meta.json.log"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatalf("the killed active left no journal: %v", err)
	}
	if st, err := jf.Stat(); err != nil || st.Size() == 0 {
		t.Fatalf("the killed active's journal is empty (%v): the creates were not journalled", err)
	}
	if _, err := jf.Write(tail); err != nil {
		t.Fatal(err)
	}
	jf.Close()

	// A successor must SERVE within the bounded window: the acceptors
	// forget the dead holder's lease after term·(1+ε), negotiation takes
	// a few retry intervals, and the successor's grace period defers new
	// lock grants by one StealDelay. The probe open completes only once
	// all three have happened.
	bound := cfg.Bound.Stretch(repLeaseTerm) + cfg.Bound.Stretch(cfg.Tau) + 3*time.Second
	probeOK := false
	for time.Since(killedAt) < bound {
		ch := make(chan msg.Errno, 1)
		cn := lc.clients[1]
		cn.Do(func() {
			cn.Client.Open("/probe.txt", true, true, func(_ msg.Handle, _ msg.Attr, e msg.Errno) {
				ch <- e
			})
		})
		var e msg.Errno
		select {
		case e = <-ch:
		case <-time.After(bound - time.Since(killedAt)):
			e = msg.ErrStale
		}
		if e == msg.OK {
			probeOK = true
			break
		}
		// ErrStale mid-takeover: the client's lease lapsed and it is
		// re-registering with the successor. Retry, still on the clock.
		time.Sleep(100 * time.Millisecond)
	}
	if !probeOK {
		for _, e := range replicaTraces(t, dir, group, 0) {
			if e.Type >= trace.EvReplicaBallotOpen && e.Type <= trace.EvReplicaTakeover {
				t.Logf("replica ev: %s", e)
			}
		}
		t.Fatalf("no successor served within the takeover bound %v", bound)
	}

	// No acknowledged create lost: the successor replayed the journal up
	// to the torn tail.
	for _, path := range acked {
		lc.openRetry(t, 1, path, false, false)
	}

	// No acknowledged write lost: the pre-kill payload reads back through
	// the successor's recovered namespace and the SAN.
	h1 := lc.openRetry(t, 1, "/rep.txt", false, false)
	if got := lc.readRetry(t, 1, h1, 0); !bytes.HasPrefix(got, payload) {
		t.Fatalf("acknowledged write lost across takeover: %q", got[:24])
	}

	// Theorem 3.1 across the takeover boundary on live TCP: client 0
	// dirties the file under the SUCCESSOR's regime (its lock came back
	// through reassertion), then loses the control network for good.
	lc.writeRetry(t, 0, h0, 1, []byte("dirty-after-takeover"))
	lc.clients[0].Ctrl.Close()

	// The survivor demands the file; its open completes only after the
	// successor's τ(1+ε) steal, and the read must observe the isolated
	// client's phase-4 flush.
	h2 := lc.openRetry(t, 1, "/rep.txt", true, false)
	if got := lc.readRetry(t, 1, h2, 1); !bytes.HasPrefix(got, []byte("dirty-after-takeover")) {
		t.Fatalf("isolated client's flush lost: %q", got[:24])
	}

	// Judge the run from the traces alone, on one shared wall clock:
	// every process recorded its anchor, and events are rebased to ns
	// since the earliest one.
	epoch0 := int64(0)
	for _, id := range group {
		if b := loadBase(dir, id); b != 0 && (epoch0 == 0 || b < epoch0) {
			epoch0 = b
		}
	}
	for _, b := range clientBase {
		if epoch0 == 0 || b < epoch0 {
			epoch0 = b
		}
	}
	// The survivor's read returned as soon as the successor's steal had
	// granted it the lock: from the middle of the task that goes on to
	// raise the fence, in another process, a fraction of a millisecond
	// ahead of the last line that task writes. Judge the traces once the
	// fence is in them (its absence is still judged below).
	isolated := msg.NodeID(10)
	evs := replicaTraces(t, dir, group, epoch0)
	fenced := func(e trace.Event) bool { return e.Type == trace.EvFence && e.On && e.Peer == isolated }
	for deadline := time.Now().Add(2 * time.Second); !slices.ContainsFunc(evs, fenced) && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		evs = replicaTraces(t, dir, group, epoch0)
	}
	clientEvs := readTrace(t, filepath.Join(dir, "trace-clients.jsonl"))
	for i := range clientEvs {
		d := time.Duration(clientBase[clientEvs[i].Node] - epoch0)
		clientEvs[i].Time = clientEvs[i].Time.Add(d)
		if clientEvs[i].TC1 != 0 {
			clientEvs[i].TC1 = clientEvs[i].TC1.Add(d)
		}
	}

	// Exactly one takeover, at a surviving replica, in grace mode: the
	// persisted snapshot carried a nonzero epoch across processes.
	var tk *trace.Event
	for i, e := range evs {
		// "grace-end" rides on the same event type but marks the window
		// closing, not a second takeover.
		if e.Type == trace.EvReplicaTakeover && e.Node != active && e.Note != "grace-end" {
			if tk != nil && tk.Node != e.Node {
				t.Fatalf("takeovers at two different survivors: %v and %v", tk.Node, e.Node)
			}
			tk = &evs[i]
		}
	}
	if tk == nil {
		t.Fatal("no takeover event at any survivor")
	}
	succ := tk.Node
	if tk.Note != "grace" {
		t.Fatalf("takeover note = %q, want \"grace\" (snapshot epoch was nonzero)", tk.Note)
	}

	// Authority-lease disjointness across the kill, from the holders' own
	// records: the successor's first grant comes no earlier than the dead
	// holder's lease end (its last grant's t0 + term).
	var killedLast, succFirst *trace.Event
	for i, e := range evs {
		if e.Type != trace.EvReplicaLeaseGranted {
			continue
		}
		switch e.Node {
		case active:
			killedLast = &evs[i]
		case succ:
			if succFirst == nil {
				succFirst = &evs[i]
			}
		}
	}
	if killedLast == nil || succFirst == nil {
		t.Fatalf("missing lease grants: killed=%v succ=%v", killedLast, succFirst)
	}
	if succFirst.Time.Before(killedLast.TC1.Add(repLeaseTerm)) {
		t.Fatalf("successor granted at %v, inside the dead holder's lease [%v, %v)",
			succFirst.Time, killedLast.TC1, killedLast.TC1.Add(repLeaseTerm))
	}

	// The steal fired exactly once, at the successor — the isolated
	// client was fenced once, not doubly.
	steals, fences := 0, 0
	var steal *trace.Event
	for i, e := range evs {
		if e.Peer != isolated {
			continue
		}
		switch {
		case e.Type == trace.EvStealFired:
			steals++
			steal = &evs[i]
		case e.Type == trace.EvFence && e.On:
			fences++
		}
	}
	if steals != 1 || steal.Node != succ {
		t.Fatalf("steals at client %v: %d (last at %v), want exactly 1 at the successor %v",
			isolated, steals, steal, succ)
	}
	if fences != 1 {
		t.Fatalf("client %v fenced %d times, want exactly once", isolated, fences)
	}

	// Theorem 3.1 across the boundary, by wall-clock: the client's own
	// expiry strictly precedes the successor's steal, and the phase-4
	// flush completed (no "dirty" expiry).
	var expire *trace.Event
	for i, e := range clientEvs {
		if e.Node == isolated && e.Type == trace.EvExpire {
			expire = &clientEvs[i]
			break
		}
	}
	if expire == nil {
		t.Fatal("isolated client never expired its lease")
	}
	if expire.Note == "dirty" {
		t.Fatal("isolated client expired with the phase-4 flush incomplete")
	}
	if !expire.Time.Before(steal.Time) {
		t.Fatalf("Theorem 3.1 across takeover: expiry at %v, steal at %v", expire.Time, steal.Time)
	}
}
