package client_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/msg"
	"repro/internal/trace"
)

// The name cache (DESIGN.md §18) over the simulated installation: what a
// shared directory lock lets a client answer by itself, and that it never
// answers anything the server would not.

// ns is one client's blocking view of the namespace.
type ns struct {
	t  *testing.T
	cl *cluster.Cluster
	i  int
	sc *client.SyncClient
}

func nsOf(t *testing.T, cl *cluster.Cluster, i int) ns {
	return ns{t: t, cl: cl, i: i, sc: cl.SyncClient(i)}
}

func (n ns) sub() *client.Client { return n.cl.Clients[n.i].Sub(0) }

func (n ns) mkdir(path string) msg.Attr {
	n.t.Helper()
	attr, err := n.sc.Create(path, true)
	if err != nil {
		n.t.Fatalf("client %d mkdir %s: %v", n.i, path, err)
	}
	return attr
}

func (n ns) create(path string) msg.Attr {
	n.t.Helper()
	attr, err := n.sc.Create(path, false)
	if err != nil {
		n.t.Fatalf("client %d create %s: %v", n.i, path, err)
	}
	return attr
}

// lookup returns what the client says about path; it must be what the
// server's store says at this instant.
func (n ns) lookup(path string) (msg.Attr, error) {
	n.t.Helper()
	attr, err := n.sc.Lookup(path)
	in, errno := n.cl.Shards[0].Server.Store().Lookup(path)
	switch {
	case errno != msg.OK && err != errno:
		n.t.Fatalf("client %d lookup %s: %v, the store says %v", n.i, path, err, errno)
	case errno == msg.OK && (err != nil || attr != in.Attr()):
		n.t.Fatalf("client %d lookup %s: %+v %v, the store says %+v", n.i, path, attr, err, in.Attr())
	}
	return attr, err
}

func (n ns) stat(ino msg.ObjectID) msg.Attr {
	n.t.Helper()
	attr, err := n.sc.Stat(ino)
	in, errno := n.cl.Shards[0].Server.Store().Get(ino)
	if err != nil || errno != msg.OK || attr != in.Attr() {
		n.t.Fatalf("client %d stat %v: %+v %v, the store says %+v %v", n.i, ino, attr, err, in, errno)
	}
	return attr
}

func (n ns) readdir(ino msg.ObjectID) []msg.DirEntry {
	n.t.Helper()
	got, err := n.sc.Readdir(ino)
	want, errno := n.cl.Shards[0].Server.Store().Readdir(ino)
	if err != nil || errno != msg.OK || len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
		n.t.Fatalf("client %d readdir %v: %v %v, the store says %v %v", n.i, ino, got, err, want, errno)
	}
	return got
}

func (n ns) counter(name string) uint64 {
	return n.cl.Reg.CounterValue(fmt.Sprintf("client.%v.names.%s", cluster.ClientID(n.i), name))
}

func ctrlSent(cl *cluster.Cluster) uint64 {
	var n uint64
	for name, v := range cl.Reg.Snapshot() {
		if strings.HasPrefix(name, "net.control.sent.") {
			n += v
		}
	}
	return n
}

func noViolations(t *testing.T, cl *cluster.Cluster) {
	t.Helper()
	if got := cl.FinalCheck(); len(got) != 0 {
		t.Fatalf("violations: %v", got)
	}
}

// TestNamesSteadyStateSendsNothing: once warm, lookups, stats and
// listings over a private tree — names present, names absent, the
// directories themselves — are answered without a single control message,
// and every answer is the store's.
func TestNamesSteadyStateSendsNothing(t *testing.T) {
	ring := trace.NewRing(1 << 14)
	opts := cluster.DefaultOptions()
	opts.Tracer = trace.New(ring)
	cl := cluster.New(opts)
	cl.Start()
	a := nsOf(t, cl, 0)

	a.mkdir("/p")
	var dirs, files []msg.ObjectID
	var paths []string
	for d := 0; d < 3; d++ {
		dir := fmt.Sprintf("/p/d%d", d)
		dirs = append(dirs, a.mkdir(dir).Ino)
		for f := 0; f < 5; f++ {
			paths = append(paths, fmt.Sprintf("%s/f%d", dir, f))
			files = append(files, a.create(paths[len(paths)-1]).Ino)
		}
	}
	round := func() {
		for _, p := range paths {
			a.lookup(p)
		}
		for _, ino := range files {
			a.stat(ino)
		}
		for d, ino := range dirs {
			if got := a.readdir(ino); len(got) != 5 {
				t.Fatalf("listing of d%d has %d entries", d, len(got))
			}
			a.stat(ino)
			a.lookup(fmt.Sprintf("/p/d%d", d))
			if _, err := a.lookup(fmt.Sprintf("/p/d%d/absent", d)); err != msg.ErrNoEnt {
				t.Fatalf("lookup of an absent name: %v", err)
			}
		}
	}
	round() // warm-up: the creates left the files covered, the rest is asked once

	sent, from := ctrlSent(cl), ring.Total()
	hits, neg, misses := a.counter("hits"), a.counter("negative_hits"), a.counter("misses")
	for i := 0; i < 3; i++ {
		round()
	}
	if n := ctrlSent(cl) - sent; n != 0 {
		t.Fatalf("%d control messages in steady state", n)
	}
	// From the trace, as T1 asserts renewals: a message answered is a
	// renewal, and there is none.
	events := ring.Events().Filter(func(e trace.Event) bool { return e.Seq > from })
	if err := events.None(trace.ByType(trace.EvRenew, trace.EvDemand, trace.EvKeepAlive)); err != nil {
		t.Fatalf("steady state: %v", err)
	}
	ops := uint64(3 * (len(paths) + len(files) + 4*len(dirs)))
	if got := a.counter("hits") - hits + a.counter("negative_hits") - neg; got != ops || a.counter("misses") != misses {
		t.Fatalf("%d hits and %d misses over %d operations", got, a.counter("misses")-misses, ops)
	}
	if a.counter("negative_hits")-neg != uint64(3*len(dirs)) {
		t.Fatalf("negative hits: %d", a.counter("negative_hits")-neg)
	}
	noViolations(t, cl)
}

// TestNamesRevokedBeforeMutation: two clients, one directory. Whatever B
// does to it — create a name A knows to be absent, unlink one A has
// cached, rename one to another — is not acknowledged before A has let go
// of the directory, and A's next question gets the new answer.
func TestNamesRevokedBeforeMutation(t *testing.T) {
	cl := cluster.New(cluster.DefaultOptions())
	cl.Start()
	a, b := nsOf(t, cl, 0), nsOf(t, cl, 1)
	dir := a.mkdir("/s").Ino
	a.create("/s/x")
	a.create("/s/y")

	// warm fills A's cache with everything the next mutation will change.
	warm := func() {
		a.readdir(dir)
		a.lookup("/s/x")
		a.lookup("/s/y")
		a.lookup("/s/z")
		a.stat(dir)
		if !a.sub().NamesHeld(dir) {
			t.Fatal("A does not hold the directory after asking about it")
		}
	}
	// acked checks, at the instant B's mutation is acknowledged, that A
	// has already dropped the directory.
	acked := func(what string) func(msg.Errno) {
		return func(errno msg.Errno) {
			if errno != msg.OK {
				t.Fatalf("%s: %v", what, errno)
			}
			if a.sub().NamesHeld(dir) {
				t.Fatalf("%s acknowledged while A still caches the directory", what)
			}
		}
	}
	mutate := func(what string, start func(done func(msg.Errno))) {
		t.Helper()
		revoked := a.counter("revoked")
		ok := cl.Await(time.Minute, func(done func()) {
			start(func(errno msg.Errno) { acked(what)(errno); done() })
		})
		if !ok {
			t.Fatalf("%s never completed", what)
		}
		if a.counter("revoked") != revoked+1 {
			t.Fatalf("%s: A lost %d directories, want 1", what, a.counter("revoked")-revoked)
		}
	}

	warm()
	mutate("create /s/z", func(done func(msg.Errno)) {
		cl.Clients[1].Create("/s/z", false, func(_ msg.Attr, e msg.Errno) { done(e) })
	})
	if _, err := a.lookup("/s/z"); err != nil {
		t.Fatalf("A's lookup of the name B created: %v", err)
	}
	warm()
	mutate("unlink /s/x", func(done func(msg.Errno)) { cl.Clients[1].Unlink("/s/x", done) })
	if _, err := a.lookup("/s/x"); err != msg.ErrNoEnt {
		t.Fatalf("A's lookup of the name B unlinked: %v", err)
	}
	a.lookup("/s/x") // and again, from the negative entry
	a.lookup("/s/y")
	a.readdir(dir)
	mutate("rename /s/y /s/x", func(done func(msg.Errno)) { cl.Clients[1].Rename("/s/y", "/s/x", done) })
	if _, err := a.lookup("/s/y"); err != msg.ErrNoEnt {
		t.Fatalf("A's lookup of the old name: %v", err)
	}
	if _, err := a.lookup("/s/x"); err != nil {
		t.Fatalf("A's lookup of the new name: %v", err)
	}
	a.readdir(dir)
	a.stat(dir)
	// A Truncate that cuts blocks moves the file's attributes, which the
	// directory's lock covers.
	h, _ := cl.MustOpen(1, "/s/t", true, true)
	for idx := uint64(0); idx < 4; idx++ {
		if e := cl.Write(1, h, idx, make([]byte, cluster.BlockSize)); e != msg.OK {
			t.Fatalf("write /s/t block %d: %v", idx, e)
		}
	}
	if e := cl.Sync(1); e != msg.OK {
		t.Fatalf("sync /s/t: %v", e)
	}
	tf, _ := a.lookup("/s/t")
	if a.stat(tf.Ino).Size != 4*cluster.BlockSize || !a.sub().NamesHeld(dir) {
		t.Fatal("setup: A does not cache /s/t at 4 blocks")
	}
	mutate("truncate /s/t to 1 block", func(done func(msg.Errno)) { cl.Clients[1].Truncate(h, 1, done) })
	if got := a.stat(tf.Ino).Size; got != cluster.BlockSize {
		t.Fatalf("A's stat after B's truncate: size %d, want %d", got, cluster.BlockSize)
	}
	// B's own cache followed its own mutations.
	sent := ctrlSent(cl)
	b.lookup("/s/x")
	b.lookup("/s/y")
	b.lookup("/s/z")
	if n := ctrlSent(cl) - sent; n != 0 {
		t.Fatalf("the mutator asked %d times about names it had just changed", n)
	}
	noViolations(t, cl)
}

// slowClientFastServer pins client 0 to the slowest and the server to the
// fastest rate the harness draws: the corner where the client's τ and the
// server's τ(1+ε) are the same instant.
func slowClientFastServer(opts *cluster.Options) {
	hi := math.Sqrt(1 + opts.Core.Bound.Eps)
	opts.ClientRates, opts.ServerRate = []float64{1 / hi}, hi
}

// TestNamesDieAtExpiryBeforeSteal is Theorem 3.1 for names: a client cut
// off while it caches a directory keeps answering from it — correctly,
// since the mutation that would make it wrong waits — until its own lease
// runs out, which purges the names, and only after that does the server's
// steal let the mutation through. Skewed clocks, and the adversarial
// pinning.
func TestNamesDieAtExpiryBeforeSteal(t *testing.T) {
	run := func(t *testing.T, opts cluster.Options) {
		ring := trace.NewRing(1 << 15)
		opts.Tracer = trace.New(ring)
		cl := cluster.New(opts)
		cl.Start()
		a := nsOf(t, cl, 0)
		dir := a.mkdir("/s").Ino
		a.create("/s/x")
		a.readdir(dir)
		a.lookup("/s/new") // absent, and A remembers

		cl.IsolateClient(0)
		created := false
		var ackSeq uint64
		cl.Clients[1].Create("/s/new", false, func(_ msg.Attr, errno msg.Errno) {
			if errno != msg.OK {
				t.Errorf("create: %v", errno)
			}
			created, ackSeq = true, ring.Total()
			if n := a.sub().NameEntries(); n != 0 {
				t.Errorf("create acknowledged while the isolated client still caches %d entries", n)
			}
		})
		// A keeps asking throughout. Until its lease stops it, the answer
		// comes from its cache, and is right: the create has not happened.
		served := 0
		deadline := cl.Sched.Now().Add(3 * opts.Core.Tau)
		for !created && cl.Sched.Now().Before(deadline) {
			cl.Clients[0].Lookup("/s/new", func(_ msg.Attr, errno msg.Errno) {
				switch errno {
				case msg.ErrNoEnt:
					served++
				case msg.ErrStale:
				default:
					t.Errorf("isolated lookup: %v", errno)
				}
			})
			cl.RunFor(100 * time.Millisecond)
		}
		if !created {
			t.Fatal("the create never completed")
		}
		if served == 0 {
			t.Fatal("the isolated client never answered from its cache")
		}
		events := ring.Events()
		isolated, srv := cluster.ClientID(0), cluster.ServerID(0)
		if err := events.Precedes(
			trace.And(trace.ByNode(isolated), trace.ByType(trace.EvExpire)),
			trace.And(trace.ByNode(srv), trace.ByType(trace.EvStealFired), trace.ByPeer(isolated))); err != nil {
			t.Fatalf("Theorem 3.1 for names: %v", err)
		}
		steal, _ := events.First(trace.ByNode(srv), trace.ByType(trace.EvStealFired), trace.ByPeer(isolated))
		if ackSeq < steal.Seq {
			t.Fatalf("the create was acknowledged (seq %d) before the steal (seq %d)", ackSeq, steal.Seq)
		}
		if _, ok := events.First(trace.ByNode(srv), trace.ByType(trace.EvDemand), trace.ByNote("dir")); !ok {
			t.Fatal("no directory demand in the trace")
		}
		cl.HealControl()
		cl.RunFor(2 * opts.Core.Tau)
		a.lookup("/s/new")
		noViolations(t, cl)
	}
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			opts := cluster.DefaultOptions()
			opts.Seed = seed
			run(t, opts)
		})
	}
	t.Run("adversarial", func(t *testing.T) {
		opts := cluster.DefaultOptions()
		slowClientFastServer(&opts)
		run(t, opts)
	})
}

// TestNamesGrantCrossingDemand: a lookup's reply grants a directory; the
// demand that takes it back overtakes the reply. The reply is used — the
// lookup is answered — and installs nothing: A must not come out of it
// remembering that the name is absent, under a lock the server has
// already taken back.
func TestNamesGrantCrossingDemand(t *testing.T) {
	cl := cluster.New(cluster.DefaultOptions())
	cl.Start()
	a, b := nsOf(t, cl, 0), nsOf(t, cl, 1)
	dir := b.mkdir("/s").Ino
	b.create("/s/x")

	// Hold back A's lookup reply.
	id := cluster.ClientID(0)
	var held *msg.Envelope
	cl.Control.Attach(id, func(env msg.Envelope) {
		if r, ok := env.Payload.(*msg.Reply); ok && held == nil {
			if _, ok := r.Body.(msg.LookupRes); ok {
				held = &env
				return
			}
		}
		cl.Clients[0].Deliver(env)
	})
	var got msg.Errno = msg.OK
	answered := false
	cl.Clients[0].Lookup("/s/nope", func(_ msg.Attr, errno msg.Errno) { got, answered = errno, true })
	cl.RunFor(50 * time.Millisecond)
	if held == nil || answered {
		t.Fatal("setup: the lookup reply was not intercepted")
	}
	if cl.Shards[0].Server.Locks().Held(id, dir) != msg.LockShared {
		t.Fatal("setup: the lookup did not grant the directory")
	}
	// B creates the name: the server demands the directory from A, which
	// has never heard of holding it, and says so.
	b.create("/s/nope")
	if cl.Shards[0].Server.Locks().Held(id, dir) != msg.LockNone {
		t.Fatal("the create did not take the directory back from A")
	}
	// Now the reply arrives.
	cl.Clients[0].Deliver(*held)
	if !answered || got != msg.ErrNoEnt {
		t.Fatalf("the crossed reply was not used: answered %v, %v", answered, got)
	}
	if a.sub().NamesHeld(dir) || a.sub().NamesHeld(1) {
		t.Fatal("the crossed reply installed a directory")
	}
	if _, err := a.lookup("/s/nope"); err != nil {
		t.Fatalf("A's next lookup of the name B created: %v", err)
	}
	noViolations(t, cl)
}

// holdReply holds back the first reply to client i whose body pick accepts,
// and returns the function that delivers it at last (false: none came).
func holdReply(cl *cluster.Cluster, i int, pick func(msg.Result) bool) (deliver func() bool) {
	var held *msg.Envelope
	cl.Control.Attach(cluster.ClientID(i), func(env msg.Envelope) {
		if r, ok := env.Payload.(*msg.Reply); ok && held == nil && r.Status == msg.ACK && pick(r.Body) {
			held = &env
			return
		}
		cl.Clients[i].Deliver(env)
	})
	return func() bool {
		if held == nil {
			return false
		}
		cl.Clients[i].Deliver(*held)
		return true
	}
}

// TestNamesOwnChangeCrossesReply: a client may have several requests in
// flight, and their replies arrive in any order. An answer the server
// gave before this client's own change, delivered after the change's
// acknowledgment, is used — it was true when given — and must not put
// back into the cache what the change replaced: the client would go on
// denying a file whose creation it has been told of, with nobody left to
// demand the mistake away. Each case holds one reply back, lets a change
// of the same client's complete, delivers the old reply, and asks again:
// the answer must be the store's.
func TestNamesOwnChangeCrossesReply(t *testing.T) {
	setup := func(t *testing.T) (*cluster.Cluster, ns, ns, msg.ObjectID) {
		cl := cluster.New(cluster.DefaultOptions())
		cl.Start()
		a, b := nsOf(t, cl, 0), nsOf(t, cl, 1)
		dir := a.mkdir("/s").Ino
		a.create("/s/old")
		b.create("/s/other") // takes the directory, and all A knew of it, from A
		return cl, a, b, dir
	}
	isLookup := func(r msg.Result) bool { _, ok := r.(msg.LookupRes); return ok }
	isCreate := func(r msg.Result) bool { _, ok := r.(msg.CreateRes); return ok }
	isList := func(r msg.Result) bool { _, ok := r.(msg.ReaddirRes); return ok }
	isAttr := func(r msg.Result) bool { _, ok := r.(msg.AttrRes); return ok }

	t.Run("absent then created", func(t *testing.T) {
		cl, a, _, _ := setup(t)
		deliver := holdReply(cl, 0, isLookup)
		var got msg.Errno = msg.OK
		cl.Clients[0].Lookup("/s/x", func(_ msg.Attr, errno msg.Errno) { got = errno })
		cl.RunFor(50 * time.Millisecond)
		a.create("/s/x")
		if !deliver() || got != msg.ErrNoEnt {
			t.Fatalf("the late reply was not used: %v", got)
		}
		if _, err := a.lookup("/s/x"); err != nil {
			t.Fatalf("A denies the file it created: %v", err)
		}
		noViolations(t, cl)
	})
	t.Run("present then unlinked", func(t *testing.T) {
		cl, a, _, _ := setup(t)
		deliver := holdReply(cl, 0, func(r msg.Result) bool {
			res, ok := r.(msg.LookupRes)
			return ok && res.Attr.Ino != 0 && len(res.Dirs) == 2 // the lookup's, not the unlink's
		})
		found := false
		cl.Clients[0].Lookup("/s/old", func(_ msg.Attr, errno msg.Errno) { found = errno == msg.OK })
		cl.RunFor(50 * time.Millisecond)
		if err := a.sc.Unlink("/s/old"); err != nil {
			t.Fatal(err)
		}
		if !deliver() || !found {
			t.Fatal("the late reply was not used")
		}
		if _, err := a.lookup("/s/old"); err != msg.ErrNoEnt {
			t.Fatalf("A still finds the file it unlinked: %v", err)
		}
		noViolations(t, cl)
	})
	t.Run("listed then created", func(t *testing.T) {
		cl, a, _, dir := setup(t)
		deliver := holdReply(cl, 0, isList)
		listed := -1
		cl.Clients[0].Sub(0).Readdir(dir, func(entries []msg.DirEntry, _ msg.Errno) { listed = len(entries) })
		cl.RunFor(50 * time.Millisecond)
		a.create("/s/x")
		if !deliver() || listed != 2 {
			t.Fatalf("the late listing was not used: %d entries", listed)
		}
		if got := a.readdir(dir); len(got) != 3 {
			t.Fatalf("A lists %d entries after its create", len(got))
		}
		a.lookup("/s/x")
		noViolations(t, cl)
	})
	t.Run("created then unlinked, acknowledged in the other order", func(t *testing.T) {
		cl, a, _, _ := setup(t)
		deliver := holdReply(cl, 0, isCreate)
		created := false
		cl.Clients[0].Create("/s/x", false, func(_ msg.Attr, errno msg.Errno) { created = errno == msg.OK })
		cl.RunFor(50 * time.Millisecond)
		if err := a.sc.Unlink("/s/x"); err != nil {
			t.Fatalf("the unlink of a file the server has created: %v", err)
		}
		if !deliver() || !created {
			t.Fatal("the late acknowledgment was not used")
		}
		if _, err := a.lookup("/s/x"); err != msg.ErrNoEnt {
			t.Fatalf("A finds the file it unlinked after creating it: %v", err)
		}
		noViolations(t, cl)
	})
	t.Run("stat then extended", func(t *testing.T) {
		cl, a, b, _ := setup(t)
		h, ino := cl.MustOpen(0, "/s/old", true, false)
		b.create("/s/again") // A forgets the directory again, and the file's attributes with it
		deliver := holdReply(cl, 0, isAttr)
		var size uint64 = math.MaxUint64
		cl.Clients[0].Sub(0).Stat(ino.Ino, func(attr msg.Attr, _ msg.Errno) { size = attr.Size })
		cl.RunFor(50 * time.Millisecond)
		if errno := cl.Write(0, h, 0, make([]byte, cluster.BlockSize)); errno != msg.OK {
			t.Fatal(errno)
		}
		cl.Sync(0)
		if !deliver() || size != 0 {
			t.Fatalf("the late attributes were not used: size %d", size)
		}
		if got := a.stat(ino.Ino); got.Size != cluster.BlockSize {
			t.Fatalf("A's stat after its own write settled: %+v", got)
		}
		noViolations(t, cl)
	})
}

// TestNamesGraceDefersMutations: after a server restart nobody knows who
// holds which directory, so a create waits out the grace window like a
// new lock acquire. A reasserted directory lock is then honoured — the
// create demands it — and an unreasserted one has expired with its
// holder's lease by the time the window closes.
func TestNamesGraceDefersMutations(t *testing.T) {
	for _, reassert := range []bool{true, false} {
		t.Run(fmt.Sprintf("reassert=%v", reassert), func(t *testing.T) {
			ring := trace.NewRing(1 << 15)
			opts := cluster.DefaultOptions()
			opts.Tracer = trace.New(ring)
			cl := cluster.New(opts)
			cl.Start()
			a, b := nsOf(t, cl, 0), nsOf(t, cl, 1)
			dir := a.mkdir("/s").Ino
			a.create("/s/x")
			a.readdir(dir)
			b.lookup("/s/x") // B is registered and knows the way

			cl.CrashServer(0)
			cl.RunFor(time.Second)
			if !reassert {
				cl.IsolateClient(0) // A never learns the server restarted
			}
			cl.RestartServer(0)
			restart := cl.Sched.Now()
			grace := opts.Core.StealDelay()
			// Everybody makes contact: NACK, reassertion.
			for i := range cl.Clients {
				cl.Clients[i].Lookup(fmt.Sprintf("/probe%d", i), func(msg.Attr, msg.Errno) {})
			}
			cl.RunFor(time.Second)
			srv := cl.Shards[0].Server
			if held := srv.Locks().Held(cluster.ClientID(0), dir); reassert != (held == msg.LockShared) {
				t.Fatalf("A holds the directory at the restarted server: %v", held)
			}

			revoked := a.counter("revoked")
			var ackAt time.Duration
			var ackSeq uint64
			ok := cl.Await(time.Minute, func(done func()) {
				cl.Clients[1].Create("/s/new", false, func(_ msg.Attr, errno msg.Errno) {
					if errno != msg.OK {
						t.Errorf("create: %v", errno)
					}
					ackAt, ackSeq = cl.Sched.Now().Sub(restart), ring.Total()
					done()
				})
			})
			if !ok {
				t.Fatal("the create never completed")
			}
			if ackAt < grace {
				t.Fatalf("create acknowledged %v after the restart, inside the %v grace window", ackAt, grace)
			}
			if reassert {
				if a.counter("revoked") != revoked+1 {
					t.Fatal("the create did not demand the reasserted directory lock")
				}
				a.lookup("/s/new")
			} else {
				exp, expired := ring.Events().First(trace.ByNode(cluster.ClientID(0)), trace.ByType(trace.EvExpire))
				if !expired || exp.Seq > ackSeq {
					t.Fatalf("the create was acknowledged before the unreasserted holder's lease expired (%v)", expired)
				}
			}
			noViolations(t, cl)
		})
	}
}

// TestNamesAppenderSettleCostsOneDemand: a writer's size and version are
// what its directory's lock covers for everybody else. Settling them while
// another client caches the directory costs that client one demand, and
// its next stat sees the new size.
func TestNamesAppenderSettleCostsOneDemand(t *testing.T) {
	cl := cluster.New(cluster.DefaultOptions())
	cl.Start()
	a, b := nsOf(t, cl, 0), nsOf(t, cl, 1)
	a.mkdir("/s")
	h, attr := cl.MustOpen(0, "/s/log", true, true)
	block := make([]byte, cluster.BlockSize)
	for idx := uint64(0); idx < 5; idx++ { // the fifth takes blocks 4 to 7
		if errno := cl.Write(0, h, idx, block); errno != msg.OK {
			t.Fatal(errno)
		}
	}
	cl.Sync(0)
	if got, _ := b.lookup("/s/log"); got.Size != 5*cluster.BlockSize {
		t.Fatalf("size before the append: %d", got.Size)
	}
	b.stat(attr.Ino) // from B's cache

	demands := cl.Reg.CounterValue("server.n1.dir_revokes")
	revoked := b.counter("revoked")
	for idx := uint64(5); idx < 7; idx++ {
		if errno := cl.Write(0, h, idx, block); errno != msg.OK {
			t.Fatal(errno)
		}
	}
	cl.Sync(0)
	if n := cl.Reg.CounterValue("server.n1.dir_revokes") - demands; n != 1 {
		t.Fatalf("settling the size cost %d directory demands, want 1", n)
	}
	if b.counter("revoked") != revoked+1 {
		t.Fatal("B was not asked for the directory")
	}
	if got := b.stat(attr.Ino); got.Size != 7*cluster.BlockSize {
		t.Fatalf("B's stat after the settle: size %d", got.Size)
	}
	// The writer sees its own size throughout, settled or not.
	if errno := cl.Write(0, h, 7, block); errno != msg.OK {
		t.Fatal(errno)
	}
	if got, err := a.sc.Stat(attr.Ino); err != nil || got.Size != 8*cluster.BlockSize {
		t.Fatalf("the writer's own stat: %+v %v", got, err)
	}
	cl.Sync(0)
	noViolations(t, cl)
}

// TestNamesCapEvictsByRelease: past its cap the cache gives directories
// back, least recently used first, each with an ordinary LockRelease: the
// server's table follows, and what was evicted is simply asked again.
func TestNamesCapEvictsByRelease(t *testing.T) {
	cl := cluster.New(cluster.DefaultOptions())
	cl.Start()
	a := nsOf(t, cl, 0)
	a.sub().SetNameCap(24)
	a.mkdir("/c")
	for d := 0; d < 6; d++ {
		a.mkdir(fmt.Sprintf("/c/d%d", d))
		for f := 0; f < 5; f++ {
			a.create(fmt.Sprintf("/c/d%d/f%d", d, f))
		}
	}
	cl.RunFor(time.Second) // the releases are acknowledged
	if a.counter("evicted") == 0 {
		t.Fatal("nothing was evicted")
	}
	if n := a.sub().NameEntries(); n > 24 {
		t.Fatalf("%d entries cached, the cap is 24", n)
	}
	if n := cl.Reg.Gauge("client.n10.names.entries").Value(); n != int64(a.sub().NameEntries()) {
		t.Fatalf("names.entries gauge %d, cache holds %d", n, a.sub().NameEntries())
	}
	srv := cl.Shards[0].Server.Locks()
	if srv.LocksHeldBy(cluster.ClientID(0)) != a.sub().LocksHeld() || srv.HeldCount() != a.sub().LocksHeld() {
		t.Fatalf("the server counts %d locks for the client (%d in all), the client %d",
			srv.LocksHeldBy(cluster.ClientID(0)), srv.HeldCount(), a.sub().LocksHeld())
	}
	if a.sub().LocksHeld() != a.sub().NameDirs() {
		t.Fatalf("%d locks for %d cached directories", a.sub().LocksHeld(), a.sub().NameDirs())
	}
	misses := a.counter("misses")
	a.lookup("/c/d0/f0") // evicted long ago
	if a.counter("misses") == misses {
		t.Fatal("a lookup under an evicted directory was answered from the cache")
	}
	noViolations(t, cl)
}

// TestNamesHitAllocations: a lookup or a stat answered from the cache
// allocates nothing; a listing allocates the slice it hands out.
func TestNamesHitAllocations(t *testing.T) {
	opts := cluster.DefaultOptions()
	opts.NoChecker = true
	cl := cluster.New(opts)
	cl.Start()
	a := nsOf(t, cl, 0)
	dir := a.mkdir("/p")
	a.mkdir("/p/q")
	file := a.create("/p/q/f")
	a.sc.Readdir(dir.Ino)
	c := a.sub()
	gotAttr := func(attr msg.Attr, errno msg.Errno) {
		if errno != msg.OK || attr.Ino != file.Ino {
			t.Errorf("hit: %+v %v", attr, errno)
		}
	}
	absent := func(_ msg.Attr, errno msg.Errno) {
		if errno != msg.ErrNoEnt {
			t.Errorf("negative hit: %v", errno)
		}
	}
	gotList := func(entries []msg.DirEntry, errno msg.Errno) {
		if errno != msg.OK || len(entries) != 1 {
			t.Errorf("listing: %v %v", entries, errno)
		}
	}
	misses := a.counter("misses")
	for name, c := range map[string]struct {
		want float64
		op   func()
	}{
		"lookup":          {0, func() { c.Lookup("/p/q/f", gotAttr) }},
		"negative lookup": {0, func() { c.Lookup("/p/nope", absent) }},
		"stat":            {0, func() { c.Stat(file.Ino, gotAttr) }},
		"readdir":         {1, func() { c.Readdir(dir.Ino, gotList) }},
	} {
		if got := testing.AllocsPerRun(200, c.op); got != c.want {
			t.Errorf("%s: %v allocations per hit, want %v", name, got, c.want)
		}
	}
	if a.counter("misses") != misses {
		t.Fatal("the operations measured were not hits")
	}
}
