package workload

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/checker"
	"repro/internal/cluster"
	"repro/internal/msg"
)

// dirChurn drives one client with metadata operations over ONE directory
// that every client works in: the mix tankbench's meta_storm runs over
// private trees (lookup 60 / stat 15 / create 10 / unlink 10 / readdir 5),
// turned on a shared one, where each mutation finds the directory in the
// other clients' name caches. A runner does not know what the others have
// done, so a create may find the name taken and an unlink may find it
// gone: those are answers, not errors.
type dirChurn struct {
	cl      *cluster.Cluster
	client  int
	names   int
	think   time.Duration
	rng     *rand.Rand
	dir     msg.ObjectID
	inos    []msg.ObjectID // the inode each name last resolved to, here
	stopped bool

	ops, mutations uint64
}

const churnDir = "/shared"

func churnPath(k int) string { return fmt.Sprintf("%s/n%d", churnDir, k) }

func newDirChurn(cl *cluster.Cluster, client, names int, think time.Duration, seed int64) *dirChurn {
	return &dirChurn{cl: cl, client: client, names: names, think: think,
		rng: rand.New(rand.NewSource(seed)), inos: make([]msg.ObjectID, names)}
}

// populateChurn makes the directory and half the names, from client 0.
func populateChurn(cl *cluster.Cluster, names int) msg.ObjectID {
	sc := cl.SyncClient(0)
	dir, err := sc.Create(churnDir, true)
	if err != nil {
		panic(fmt.Sprintf("dirchurn: mkdir: %v", err))
	}
	for k := 0; k < names; k += 2 {
		if _, err := sc.Create(churnPath(k), false); err != nil {
			panic(fmt.Sprintf("dirchurn: create: %v", err))
		}
	}
	return dir.Ino
}

func (r *dirChurn) start(dir msg.ObjectID) {
	r.dir = dir
	r.cl.Sched.After(r.next(), r.step)
}

func (r *dirChurn) next() time.Duration {
	return time.Duration(r.rng.ExpFloat64()*float64(r.think)) + time.Microsecond
}

func (r *dirChurn) step() {
	if r.stopped {
		return
	}
	c := r.cl.Clients[r.client]
	k := r.rng.Intn(r.names)
	done := func(msg.Errno) {
		r.ops++
		r.cl.Sched.After(r.next(), r.step)
	}
	switch x := r.rng.Intn(100); {
	case x < 60:
		c.Lookup(churnPath(k), func(attr msg.Attr, e msg.Errno) {
			r.inos[k] = attr.Ino
			done(e)
		})
	case x < 75 && r.inos[k] != 0:
		c.Sub(0).Stat(r.inos[k], func(_ msg.Attr, e msg.Errno) { done(e) })
	case x < 85:
		c.Create(churnPath(k), false, func(attr msg.Attr, e msg.Errno) {
			if e == msg.OK {
				r.mutations++
				r.inos[k] = attr.Ino
			}
			done(e)
		})
	case x < 95:
		c.Unlink(churnPath(k), func(e msg.Errno) {
			if e == msg.OK {
				r.mutations++
				r.inos[k] = 0
			}
			done(e)
		})
	default:
		c.Sub(0).Readdir(r.dir, func(_ []msg.DirEntry, e msg.Errno) { done(e) })
	}
}

func namespaceViolations(cl *cluster.Cluster) (n int) {
	for _, k := range []checker.Kind{checker.StaleName, checker.StaleNegative, checker.StaleAttr} {
		n += cl.Checkers[0].Count(k)
	}
	return n
}

// TestSharedDirectoryChurnUnderFailures is T3 for the namespace: three
// clients churn one directory while a random one is isolated and healed.
// The paper's protocol and honor-locks never serve a name, an absence or
// an attribute the server has moved on from; the two recovery policies
// that steal a lock while its holder may still be using it are the ones
// the checker's namespace violations exist to catch.
func TestSharedDirectoryChurnUnderFailures(t *testing.T) {
	trial := func(pol baselines.Policy, seed int64) (violations int, ops uint64) {
		opts := cluster.DefaultOptions()
		opts.Seed = seed
		opts.Policy = pol
		opts.Control.LossProb = 0.02
		cl := cluster.New(opts)
		cl.Start()
		tau := opts.Core.Tau
		dir := populateChurn(cl, 16)
		// Two closed loops a client: its requests are in flight together, and
		// the control network's jitter delivers their replies in any order.
		runners := make([]*dirChurn, 2*opts.Clients)
		for i := range runners {
			runners[i] = newDirChurn(cl, i%opts.Clients, 16, 80*time.Millisecond, seed*31+int64(i))
			runners[i].start(dir)
		}
		victim := int(cl.Sched.Rand().Int31n(int32(opts.Clients)))
		at := time.Duration(cl.Sched.Rand().Int63n(int64(tau)))
		cl.Sched.After(at, func() { cl.IsolateClient(victim) })
		cl.Sched.After(at+tau+tau/2, func() { cl.HealControl() })
		// The victim's runner is a closed loop: its first operation that
		// needs the server parks it until the heal. Beside it, something on
		// the same machine keeps asking about the names it had cached when
		// it was cut off — only those: a name that needed the server once
		// is not asked about again.
		asks := make([]bool, 16)
		for k := range asks {
			asks[k] = true
		}
		var watch func()
		watch = func() {
			if runners[victim].stopped {
				return
			}
			for k, ask := range asks {
				if ask {
					answered := false
					cl.Clients[victim].Lookup(churnPath(k), func(msg.Attr, msg.Errno) { answered = true })
					asks[k] = answered
				}
			}
			cl.Sched.After(50*time.Millisecond, watch)
		}
		cl.Sched.After(at, watch)
		cl.RunFor(4 * tau)
		for _, r := range runners {
			r.stopped = true
			ops += r.ops
		}
		cl.RunFor(2 * tau)
		cl.FinalCheck()
		if pol.Recovery == baselines.RecoverLeaseFence || pol.Recovery == baselines.RecoverHonorLocks {
			for _, v := range cl.Violations() {
				t.Errorf("%s seed %d: %v", pol.Name, seed, v)
			}
		}
		return namespaceViolations(cl), ops
	}
	seeds := int64(6)
	if testing.Short() {
		seeds = 2
	}
	for _, pol := range []baselines.Policy{baselines.StorageTank(), baselines.HonorLocks(),
		baselines.NaiveSteal(), baselines.FenceOnly()} {
		var violations int
		var ops uint64
		for seed := int64(1); seed <= seeds; seed++ {
			v, o := trial(pol, seed)
			violations += v
			ops += o
		}
		t.Logf("%-12s %d operations, %d namespace violations", pol.Name, ops, violations)
		if ops < 1000 {
			t.Errorf("%s: the churn barely ran: %d operations", pol.Name, ops)
		}
		safe := pol.Recovery == baselines.RecoverLeaseFence || pol.Recovery == baselines.RecoverHonorLocks
		if safe && violations != 0 {
			t.Errorf("%s: %d namespace violations", pol.Name, violations)
		}
		if !safe && violations == 0 && !testing.Short() {
			t.Errorf("%s stole directory locks from a client still using them and the checker saw nothing", pol.Name)
		}
	}
}

// TestSharedDirectoryPrice puts the cost of the name cache on the books:
// two clients, one directory, the meta_storm mix, no failures. Every
// mutation by one finds the directory in the other's cache — its reads
// put it back there — and pays one demand to take it out, and with it
// goes everything the other knew of the directory, which it learns again
// a name at a time: on this workload the cache answers few reads and the
// demands are pure cost. (tankbench has no such workload yet; ROADMAP
// carries these figures until it does.)
func TestSharedDirectoryPrice(t *testing.T) {
	opts := cluster.DefaultOptions()
	opts.Clients = 2
	cl := cluster.New(opts)
	cl.Start()
	dir := populateChurn(cl, 100)
	runners := make([]*dirChurn, opts.Clients)
	for i := range runners {
		runners[i] = newDirChurn(cl, i, 100, 5*time.Millisecond, int64(7+i))
		runners[i].start(dir)
	}
	cl.RunFor(10 * time.Second) // warm
	base := cl.Reg.Snapshot()
	var ops0, mut0 uint64
	for _, r := range runners {
		ops0, mut0 = ops0+r.ops, mut0+r.mutations
	}
	cl.RunFor(60 * time.Second)
	diff := cl.Reg.DiffFrom(base)
	var ops, mutations uint64
	for _, r := range runners {
		r.stopped = true
		ops, mutations = ops+r.ops, mutations+r.mutations
	}
	ops, mutations = ops-ops0, mutations-mut0
	demands := diff["server.n1.dir_revokes"]
	var hits, misses uint64
	for i := range runners {
		prefix := fmt.Sprintf("client.%v.names.", cluster.ClientID(i))
		hits += diff[prefix+"hits"] + diff[prefix+"negative_hits"]
		misses += diff[prefix+"misses"]
	}
	perMutation := float64(demands) / float64(mutations)
	t.Logf("%d operations, %d mutations, %d directory demands: %.2f demands per mutation; reads: %d hits, %d misses (%.0f%% answered locally); %.2f control messages per operation",
		ops, mutations, demands, perMutation, hits, misses, 100*float64(hits)/float64(hits+misses),
		float64(diff["net.control.sent.control-req"]+diff["net.control.sent.control-reply"]+
			diff["net.control.sent.demand"]+diff["net.control.sent.demand-ack"])/float64(ops))
	// At most one other holder to ask, and — with reads four times as
	// frequent as mutations — almost always one.
	if perMutation > 1.0 || perMutation < 0.5 {
		t.Errorf("%.2f demands per mutation, want just under 1", perMutation)
	}
	if got := cl.FinalCheck(); len(got) != 0 {
		t.Fatalf("violations: %v", got)
	}
}

// TestSharedDirectoryOverlappingRequests: several closed loops a client,
// few names, short think times, no failures — so that a client's own
// requests about one name are in flight together all the time, and the
// control network's jitter delivers their replies in either order. A
// lookup answered before the same client's create and delivered after its
// acknowledgment must not make the client deny the file (the checker
// excuses a client's own change only while it is in flight).
func TestSharedDirectoryOverlappingRequests(t *testing.T) {
	opts := cluster.DefaultOptions()
	opts.Clients = 2
	cl := cluster.New(opts)
	cl.Start()
	dir := populateChurn(cl, 4)
	runners := make([]*dirChurn, 4*opts.Clients)
	for i := range runners {
		runners[i] = newDirChurn(cl, i%opts.Clients, 4, 2*time.Millisecond, int64(100+i))
		runners[i].start(dir)
	}
	cl.RunFor(20 * time.Second)
	var ops uint64
	for _, r := range runners {
		r.stopped = true
		ops += r.ops
	}
	cl.RunFor(time.Second)
	if ops < 10000 {
		t.Errorf("the churn barely ran: %d operations", ops)
	}
	if got := cl.FinalCheck(); len(got) != 0 {
		t.Fatalf("%d violations in %d operations, the first: %v", len(got), ops, got[0])
	}
}
