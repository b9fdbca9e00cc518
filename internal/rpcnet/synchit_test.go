package rpcnet

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/client"
	"repro/internal/msg"
)

// hitFile is a live client set up to be answered from its caches: /d/f
// open for writing, blocks [0, blocks) on disk and mapped under the
// client's exclusive lock, block 0 resident and dirty, and the name cache
// holding /d and /d/f. The lease and the retry interval are an hour, so
// that no protocol timer takes the executor while a caller measures — a
// hit that finds it taken rightly goes through the pump, and that is the
// protocol's cost, not the hit's.
type hitFile struct {
	cn  *ClientNode
	fs  *client.SyncClient
	h   msg.Handle
	ino msg.ObjectID
}

func newHitFile(tb testing.TB, blocks int) *hitFile {
	tb.Helper()
	cfg := liveCore()
	cfg.Tau = time.Hour
	cfg.RetryInterval = time.Hour
	lc := startLiveCfg(tb, 1, cfg)
	cn := lc.clients[0]
	if err := cn.Start(5 * time.Second); err != nil {
		tb.Fatal(err)
	}
	fs := cn.Sync(5 * time.Second)
	if _, err := fs.Create("/d", true); err != nil {
		tb.Fatal(err)
	}
	h, attr, err := fs.Open("/d/f", true, true)
	if err != nil {
		tb.Fatal(err)
	}
	block := bytes.Repeat([]byte{'h'}, client.BlockSize)
	for i := 0; i < blocks; i++ {
		if err := fs.WriteAt(h, uint64(i), block); err != nil {
			tb.Fatal(err)
		}
	}
	if err := fs.SyncAll(); err != nil {
		tb.Fatal(err)
	}
	// Giving the lock back drops every page; taking it again brings the
	// whole map, so that blocks 1.. are mapped and not resident.
	if err := fs.ReleaseLock(attr.Ino); err != nil {
		tb.Fatal(err)
	}
	if err := fs.WriteAt(h, 0, block); err != nil {
		tb.Fatal(err)
	}
	if _, err := fs.Lookup("/d/f"); err != nil { // the miss that fills the name cache
		tb.Fatal(err)
	}
	return &hitFile{cn: cn, fs: fs, h: h, ino: attr.Ino}
}

// Allocation pins on the synchronous hits of a live client: a Lookup and
// a Stat the name cache answers allocate nothing, a ReadAt only the copy
// it hands back, a WriteAt over a resident page nothing and onto a mapped
// block with no page nothing either: its page header comes off the free
// list the released lock's pages filled (one allocation, the Page, before
// headers were reused). The pumped path these calls took
// before cost 7 allocations on top (the completion token, its two method
// values, the operation's closures). Each case also checks that every call
// was a hit and sent nothing.
func TestSyncHitAllocations(t *testing.T) {
	if bufpool.Debug {
		t.Skip("tankdebug hooks allocate by design")
	}
	const runs = 100
	f := newHitFile(t, runs+2)
	reg := f.cn.Reg
	sent := reg.Counter("client.n10.chan.sent")
	block := bytes.Repeat([]byte{'w'}, client.BlockSize)
	next := uint64(1) // the next mapped block with no page
	for _, tc := range []struct {
		name    string
		counter string
		want    float64
		op      func() error
	}{
		{"Lookup", "client.n10.names.hits", 0, func() error { _, err := f.fs.Lookup("/d/f"); return err }},
		{"Stat", "client.n10.names.hits", 0, func() error { _, err := f.fs.Stat(f.ino); return err }},
		{"ReadAt", "client.n10.cache.hits", 1, func() error { _, err := f.fs.ReadAt(f.h, 0); return err }},
		{"WriteAt resident", "client.n10.writes", 0, func() error { return f.fs.WriteAt(f.h, 0, block) }},
		{"WriteAt new page", "client.n10.writes", 0, func() error {
			next++
			return f.fs.WriteAt(f.h, next-1, block)
		}},
	} {
		hits := reg.Counter(tc.counter)
		before, sentBefore := hits.Value(), sent.Value()
		var err error
		got := testing.AllocsPerRun(runs, func() {
			if e := tc.op(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		t.Logf("%s: %v allocations", tc.name, got)
		if got != tc.want {
			t.Errorf("%s: %v allocations, want %v", tc.name, got, tc.want)
		}
		// AllocsPerRun makes one call more than it measures.
		if n := hits.Value() - before; n != runs+1 || sent.Value() != sentBefore {
			t.Fatalf("%s: %d of %d calls counted by %s, %d requests sent: not all were hits",
				tc.name, n, runs+1, tc.counter, sent.Value()-sentBefore)
		}
	}
}

// Enter takes the token only from an executor with nothing running and
// nothing queued, so a caller's hit never overtakes a delivery that came
// first. Deterministically: a queued task and a running one each make it
// refuse. Then, as stress under -race: producers each bring a task that
// records its number — with Do, so that it runs at once when it can and
// queues when it cannot — and then try the token; one that gets it must
// find its own task already run — the queue was empty — and run alone.
func TestEnterNeverOvertakesTheQueue(t *testing.T) {
	e := NewExecutor()
	e.Submit(func() {})
	if e.Enter() {
		t.Fatal("Enter took the token with a task queued")
	}
	go e.Run()
	defer e.Close()
	started, release := make(chan struct{}), make(chan struct{})
	e.Submit(func() { close(started); <-release })
	<-started
	if e.Enter() {
		t.Fatal("Enter took the token while a task ran")
	}
	close(release)

	const producers, rounds = 4, 500
	var (
		running int // tasks and token holders inside the executor; plain, watched by -race
		ran     [producers]int
		entered [producers]int
		wg      sync.WaitGroup
	)
	inside := func() {
		if running++; running != 1 {
			t.Errorf("%d tasks ran at once", running)
		}
	}
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= rounds; i++ {
				e.Do(func() {
					inside()
					ran[p] = i
					running--
				})
				if !e.Enter() {
					continue
				}
				inside()
				if ran[p] != i {
					t.Errorf("producer %d entered with its task %d still queued (last run %d)", p, i, ran[p])
				}
				entered[p]++
				running--
				e.Leave()
			}
		}()
	}
	wg.Wait()
	total := 0
	for p := range entered {
		total += entered[p]
	}
	t.Logf("%d of %d tries took the token", total, producers*rounds)
}

// TestSyncClientSharedAcrossGoroutines runs one SyncClient from several
// goroutines at once, each on its own file: pumped calls (an open, a
// lookup of a name no one has asked about, a sync) interleave with hits,
// and each call must get its own results back. A SyncClient hands the
// reply record of a completed call to the next; two calls in flight must
// never share one.
func TestSyncClientSharedAcrossGoroutines(t *testing.T) {
	lc := startLive(t, 1)
	lc.start(t, 0)
	sc := lc.clients[0].Sync(liveOpTimeout)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			path := fmt.Sprintf("/g%d", g)
			h, _, err := sc.Open(path, true, true)
			if err != nil {
				t.Errorf("open %s: %v", path, err)
				return
			}
			for i := 0; i < 20; i++ {
				block := bytes.Repeat([]byte{byte(g), byte(i)}, client.BlockSize/2)
				if err := sc.WriteAt(h, uint64(i), block); err != nil {
					t.Errorf("write %s/%d: %v", path, i, err)
					return
				}
				if _, err := sc.Lookup(fmt.Sprintf("/absent-%d-%d", g, i)); err != msg.ErrNoEnt {
					t.Errorf("lookup of an absent name from %s: %v, want ErrNoEnt", path, err)
					return
				}
				if got, err := sc.ReadAt(h, uint64(i)); err != nil || !bytes.Equal(got, block) {
					t.Errorf("read %s/%d: %v", path, i, err)
					return
				}
			}
			if err := sc.SyncAll(); err != nil {
				t.Errorf("sync from %s: %v", path, err)
				return
			}
			if attr, err := sc.Lookup(path); err != nil || attr.Size != 20*client.BlockSize {
				t.Errorf("lookup %s: %+v, %v", path, attr, err)
			}
		}()
	}
	wg.Wait()
}
