package rpcnet

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/msg"
)

// TestCleanExitReleasesLocks: a client that exits cleanly gives its locks
// back — data locks, after flushing what they cover, and directory locks
// — so that nobody waits out its lease for it. Client A dirties a file,
// looks a name up (which leaves it holding the directory) and closes;
// client B's create in that directory and its read of that file complete
// at once, far inside τ. Before ClientNode.Close told the server anything,
// both waited for the τ(1+ε) steal.
func TestCleanExitReleasesLocks(t *testing.T) {
	lc := startLive(t, 2)
	lc.start(t, 0)
	lc.start(t, 1)
	a, b := lc.clients[0].Sync(0), lc.clients[1].Sync(0)

	if _, err := a.Create("/d", true); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Create("/d/f", false); err != nil {
		t.Fatal(err)
	}
	h, _, err := a.Open("/d/data", true, true)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("exit"), 1024)
	if err := a.WriteAt(h, 0, payload); err != nil { // dirty, under an exclusive lock
		t.Fatal(err)
	}
	if _, err := a.Lookup("/d/f"); err != nil {
		t.Fatal(err)
	}
	lc.clients[0].Close()

	start := time.Now()
	if _, err := b.Create("/d/g", false); err != nil {
		t.Fatalf("create in the directory the closed client held: %v", err)
	}
	hb, _, err := b.Open("/d/data", false, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadAt(hb, 0)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read of the file the closed client was writing: %d bytes, %v", len(got), err)
	}
	// τ is 3 s here and a steal fires after τ(1+ε) plus the demand's
	// retries: anything under a second never waited for one.
	if took := time.Since(start); took > time.Second {
		t.Fatalf("the survivor waited %v for a client that had exited cleanly", took)
	}
	if n := lc.srvs[0].Reg.CounterValue("server.authority.timeouts_started"); n != 0 {
		t.Fatalf("the server started %d lease timeouts", n)
	}
}

// TestLiveSharedDirectoryChurn drives two clients over real TCP through a
// seeded sequence of creates, unlinks, renames, lookups, stats and
// listings in ONE directory, one operation at a time, and checks every
// reply against a model of the namespace. Whatever one client changes the
// other has usually just cached: each mutation has to take the directory
// away first, and each answer served from a cache must still be the truth.
func TestLiveSharedDirectoryChurn(t *testing.T) {
	lc := startLive(t, 2)
	lc.start(t, 0)
	lc.start(t, 1)
	scs := []*client.SyncClient{lc.clients[0].Sync(0), lc.clients[1].Sync(0)}
	dir, err := scs[0].Create("/shared", true)
	if err != nil {
		t.Fatal(err)
	}
	const names = 12
	model := make(map[string]msg.ObjectID) // name → inode
	path := func(k int) string { return fmt.Sprintf("/shared/n%d", k) }
	rng := rand.New(rand.NewSource(21))
	for op := 0; op < 3000; op++ {
		sc := scs[rng.Intn(2)]
		k := rng.Intn(names)
		name := fmt.Sprintf("n%d", k)
		ino, exists := model[name]
		switch r := rng.Intn(100); {
		case r < 15:
			attr, err := sc.Create(path(k), false)
			switch {
			case exists && err != msg.ErrExist:
				t.Fatalf("op %d: create of existing %s: %v", op, name, err)
			case !exists && err != nil:
				t.Fatalf("op %d: create %s: %v", op, name, err)
			case !exists:
				model[name] = attr.Ino
			}
		case r < 28:
			err := sc.Unlink(path(k))
			switch {
			case exists && err != nil, !exists && err != msg.ErrNoEnt:
				t.Fatalf("op %d: unlink %s (exists %v): %v", op, name, exists, err)
			}
			delete(model, name)
		case r < 36:
			to := rng.Intn(names)
			toName := fmt.Sprintf("n%d", to)
			_, taken := model[toName]
			err := sc.Rename(path(k), path(to))
			switch {
			case !exists && err != msg.ErrNoEnt, exists && taken && err != msg.ErrExist, exists && !taken && err != nil:
				t.Fatalf("op %d: rename %s → %s (exists %v, taken %v): %v", op, name, toName, exists, taken, err)
			case err == nil:
				delete(model, name)
				model[toName] = ino
			}
		case r < 70:
			attr, err := sc.Lookup(path(k))
			switch {
			case !exists && err != msg.ErrNoEnt, exists && (err != nil || attr.Ino != ino || attr.IsDir):
				t.Fatalf("op %d: lookup %s (model %v %v): %+v %v", op, name, ino, exists, attr, err)
			}
		case r < 85 && exists:
			if attr, err := sc.Stat(ino); err != nil || attr.Ino != ino {
				t.Fatalf("op %d: stat %v: %+v %v", op, ino, attr, err)
			}
		default:
			entries, err := sc.Readdir(dir.Ino)
			if err != nil || len(entries) != len(model) {
				t.Fatalf("op %d: readdir: %d entries, %v; the model has %d", op, len(entries), err, len(model))
			}
			for i, e := range entries {
				if model[e.Name] != e.Ino || i > 0 && entries[i-1].Name >= e.Name {
					t.Fatalf("op %d: readdir entry %d is %+v; the model says %v", op, i, e, model[e.Name])
				}
			}
		}
	}
	// Both caches worked for their living, and were taken away often.
	snap := lc.srvs[0].Reg.Snapshot()
	for _, id := range []string{"n10", "n11"} {
		reg := lc.clients[0].Reg
		if id == "n11" {
			reg = lc.clients[1].Reg
		}
		hits := reg.CounterValue("client." + id + ".names.hits")
		revoked := reg.CounterValue("client." + id + ".names.revoked")
		if hits == 0 || revoked == 0 {
			t.Errorf("client %s: %d hits, %d directories revoked", id, hits, revoked)
		}
	}
	if snap["server.n1.dir_revokes"] == 0 || snap["server.n1.dir_grants"] == 0 {
		t.Errorf("server: %d directory grants, %d revokes", snap["server.n1.dir_grants"], snap["server.n1.dir_revokes"])
	}
}
