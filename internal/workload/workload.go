// Package workload generates synthetic file-system activity for the
// experiments: a population of files with Zipf popularity, a configurable
// operation mix, exponential think times, and an activity duty cycle (the
// paper's distinction between active clients — which renew leases
// opportunistically — and idle clients — which need keep-alives — is a
// function of exactly this knob).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/msg"
	"repro/internal/sim"
)

// OpKind is one generated operation. OpStat and OpReaddir are the mix's
// metadata share. Each asks what it always asked — the attributes of the
// shared file picked, the listing of the shared population's directory.
// Under a policy that does not cache names that is a message, and the
// whole operation. A client that holds the directory's lock answers from
// its name cache, under the checker's eyes, while other clients write the
// files and the failures of the experiment play out; and since such an
// answer is no message at all, the operation then does what the metadata
// share stands for in every experiment — a transaction at the server whose
// ACK renews the lease: a create or an unlink in the runner's own
// directory, which nobody else has cached.
type OpKind uint8

const (
	OpRead OpKind = iota
	OpWrite
	OpStat
	OpReaddir
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpStat:
		return "stat"
	case OpReaddir:
		return "readdir"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Config shapes the generated load.
type Config struct {
	// Files is the number of files in the shared population.
	Files int
	// BlocksPerFile bounds the block index of reads/writes.
	BlocksPerFile int
	// ZipfS is the Zipf skew (s > 1; larger = more skewed). 0 disables
	// skew (uniform).
	ZipfS float64
	// ReadFrac, WriteFrac, StatFrac give the op mix; the remainder is
	// readdir. Must sum to ≤ 1.
	ReadFrac, WriteFrac, StatFrac float64
	// MeanThink is the mean exponential think time between a client's
	// operations.
	MeanThink time.Duration
	// DutyCycle in [0,1]: fraction of each period the client is active.
	// 1 = always active.
	DutyCycle float64
	// DutyPeriod is the on/off alternation period when DutyCycle < 1.
	DutyPeriod time.Duration
	// FileBase offsets this runner's file indices within the population:
	// it draws from [FileBase, FileBase+Files). Experiments use it to
	// give clients disjoint working sets (Populate must have created the
	// whole range).
	FileBase int
}

// DefaultConfig returns a moderately skewed, read-mostly workload.
func DefaultConfig() Config {
	return Config{
		Files:         50,
		BlocksPerFile: 8,
		ZipfS:         1.2,
		ReadFrac:      0.55,
		WriteFrac:     0.30,
		StatFrac:      0.10,
		MeanThink:     200 * time.Millisecond,
		DutyCycle:     1,
		DutyPeriod:    time.Minute,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Files < 1 || c.BlocksPerFile < 1:
		return fmt.Errorf("workload: need files and blocks, got %d/%d", c.Files, c.BlocksPerFile)
	case c.ReadFrac < 0 || c.WriteFrac < 0 || c.StatFrac < 0 ||
		c.ReadFrac+c.WriteFrac+c.StatFrac > 1+1e-9:
		return fmt.Errorf("workload: bad op mix %g/%g/%g", c.ReadFrac, c.WriteFrac, c.StatFrac)
	case c.MeanThink <= 0:
		return fmt.Errorf("workload: MeanThink must be positive")
	case c.DutyCycle < 0 || c.DutyCycle > 1:
		return fmt.Errorf("workload: DutyCycle must be in [0,1]")
	case c.DutyCycle < 1 && c.DutyPeriod <= 0:
		return fmt.Errorf("workload: DutyPeriod required when DutyCycle < 1")
	}
	return nil
}

// Picker draws files and operations deterministically from a seed.
type Picker struct {
	cfg  Config
	rng  *rand.Rand
	zipf *rand.Zipf
}

// NewPicker creates a picker with its own deterministic stream.
func NewPicker(cfg Config, seed int64) *Picker {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(seed))
	p := &Picker{cfg: cfg, rng: rng}
	if cfg.ZipfS > 1 {
		p.zipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Files-1))
	}
	return p
}

// File picks a file index by popularity.
func (p *Picker) File() int {
	if p.zipf != nil {
		return int(p.zipf.Uint64())
	}
	return p.rng.Intn(p.cfg.Files)
}

// Block picks a block index within a file.
func (p *Picker) Block() uint64 { return uint64(p.rng.Intn(p.cfg.BlocksPerFile)) }

// Op picks an operation by the configured mix.
func (p *Picker) Op() OpKind {
	x := p.rng.Float64()
	switch {
	case x < p.cfg.ReadFrac:
		return OpRead
	case x < p.cfg.ReadFrac+p.cfg.WriteFrac:
		return OpWrite
	case x < p.cfg.ReadFrac+p.cfg.WriteFrac+p.cfg.StatFrac:
		return OpStat
	default:
		return OpReaddir
	}
}

// Think draws an exponential think time with the configured mean.
func (p *Picker) Think() time.Duration {
	d := time.Duration(p.rng.ExpFloat64() * float64(p.cfg.MeanThink))
	if d < time.Microsecond {
		d = time.Microsecond
	}
	if d > 100*p.cfg.MeanThink {
		d = 100 * p.cfg.MeanThink
	}
	return d
}

// popDir is the directory the shared population lives in.
const popDir = "/pop"

// FilePath names file i in the shared population.
func FilePath(i int) string { return fmt.Sprintf("%s/f%04d", popDir, i) }

// Runner drives one client of a cluster with generated load. It is fully
// event-driven: Start schedules the first operation and each completion
// schedules the next after a think time.
type Runner struct {
	cl     *cluster.Cluster
	client int
	cfg    Config
	pick   *Picker

	handles map[int]openFile // file index → open handle
	// popIno is the population directory's inode at each authority.
	popIno  map[*client.Client]msg.ObjectID
	stopped bool
	// scratch says the runner's scratch file exists: the next metadata
	// operation unlinks it, the one after creates it again.
	scratch bool

	// Ops counts completed operations; Errors counts failures (refused
	// while quiescing, stale handles after recovery, ...).
	Ops    uint64
	Errors uint64
	ByKind [4]uint64
}

// openFile is a lazily opened population file.
type openFile struct {
	h   msg.Handle
	ino msg.ObjectID
	// sub is the client's protocol instance for the authority that owns
	// the file: inode numbers mean something only there.
	sub *client.Client
}

// NewRunner creates a load runner for client index `client`.
func NewRunner(cl *cluster.Cluster, client int, cfg Config, seed int64) *Runner {
	return &Runner{
		cl:      cl,
		client:  client,
		cfg:     cfg,
		pick:    NewPicker(cfg, seed),
		handles: make(map[int]openFile),
	}
}

// Populate creates the shared file population and pre-sizes every file.
// Call once per cluster, before starting runners.
func Populate(cl *cluster.Cluster, cfg Config) {
	sc := cl.SyncClient(0)
	if _, err := sc.Lookup(popDir); err == msg.ErrNoEnt {
		if _, err := sc.Create(popDir, true); err != nil {
			panic(fmt.Sprintf("workload: mkdir /pop: %v", err))
		}
	}
	data := make([]byte, cluster.BlockSize)
	for i := 0; i < cfg.Files; i++ {
		h, _, err := sc.Open(FilePath(i), true, true)
		if err != nil {
			panic(fmt.Sprintf("workload: populate open: %v", err))
		}
		for b := 0; b < cfg.BlocksPerFile; b++ {
			if err := sc.WriteAt(h, uint64(b), data); err != nil {
				panic(fmt.Sprintf("workload: populate write: %v", err))
			}
		}
		if err := sc.SyncAll(); err != nil {
			panic(fmt.Sprintf("workload: populate sync: %v", err))
		}
		if err := sc.Close(h); err != nil {
			panic(fmt.Sprintf("workload: populate close: %v", err))
		}
	}
	// Drop the populator's exclusive locks so the measured clients start
	// symmetric.
	for i := 0; i < cfg.Files; i++ {
		attr, err := sc.Lookup(FilePath(i))
		if err != nil {
			panic(fmt.Sprintf("workload: populate lookup: %v", err))
		}
		// A failed release is tolerable (the lock may already be gone).
		_ = sc.Owner(FilePath(i)).ReleaseLock(attr.Ino)
	}
}

// Start begins generating load. The runner stops at Stop or when the
// scheduler drains.
func (r *Runner) Start() { r.scheduleNext(0) }

// Stop halts the runner after the current operation.
func (r *Runner) Stop() { r.stopped = true }

func (r *Runner) active(now sim.Time) bool {
	if r.cfg.DutyCycle >= 1 {
		return true
	}
	phase := math.Mod(float64(now)/float64(r.cfg.DutyPeriod), 1)
	return phase < r.cfg.DutyCycle
}

func (r *Runner) scheduleNext(delay time.Duration) {
	if r.stopped {
		return
	}
	r.cl.Sched.After(delay, r.step)
}

func (r *Runner) step() {
	if r.stopped {
		return
	}
	if !r.active(r.cl.Sched.Now()) {
		// Idle stretch: check back in at the next duty boundary.
		r.scheduleNext(r.cfg.DutyPeriod / 10)
		return
	}
	file := r.pick.File()
	op := r.pick.Op()
	next := func(errno msg.Errno) {
		r.Ops++
		r.ByKind[op]++
		if errno != msg.OK {
			r.Errors++
			if errno == msg.ErrBadHandle || errno == msg.ErrStale {
				// Handle invalidated by recovery: reopen next time.
				delete(r.handles, file)
			}
		}
		r.scheduleNext(r.pick.Think())
	}
	file += r.cfg.FileBase
	r.withHandle(file, func(of openFile, errno msg.Errno) {
		if errno != msg.OK {
			next(errno)
			return
		}
		c := r.cl.Clients[r.client]
		switch op {
		case OpRead:
			c.Read(of.h, r.pick.Block(), func(_ []byte, e msg.Errno) { next(e) })
		case OpWrite:
			data := make([]byte, cluster.BlockSize)
			data[0] = byte(r.Ops)
			c.Write(of.h, r.pick.Block(), data, func(e msg.Errno) { next(e) })
		case OpStat:
			of.sub.Stat(of.ino, func(_ msg.Attr, e msg.Errno) { r.metaOp(e, next) })
		case OpReaddir:
			r.withPopDir(of.sub, func(dir msg.ObjectID, e msg.Errno) {
				if e != msg.OK {
					next(e)
					return
				}
				of.sub.Readdir(dir, func(_ []msg.DirEntry, e msg.Errno) { r.metaOp(e, next) })
			})
		}
	})
}

// withPopDir finds the population directory's inode at sub's authority,
// asking once.
func (r *Runner) withPopDir(sub *client.Client, fn func(msg.ObjectID, msg.Errno)) {
	if ino, ok := r.popIno[sub]; ok {
		fn(ino, msg.OK)
		return
	}
	sub.Lookup(popDir, func(dir msg.Attr, e msg.Errno) {
		if e == msg.OK {
			if r.popIno == nil {
				r.popIno = make(map[*client.Client]msg.ObjectID)
			}
			r.popIno[sub] = dir.Ino
		}
		fn(dir.Ino, e)
	})
}

// metaOp is the metadata transaction that follows a stat or a listing
// that succeeded: the runner's scratch file, in a directory of its own
// under the population's, created or unlinked.
func (r *Runner) metaOp(asked msg.Errno, next func(msg.Errno)) {
	if asked != msg.OK || !r.cl.Opts.Policy.CachesNames() {
		next(asked)
		return
	}
	c := r.cl.Clients[r.client]
	path := fmt.Sprintf("%s/c%d/t", popDir, r.client)
	if r.scratch {
		c.Unlink(path, func(e msg.Errno) {
			r.scratch = e != msg.OK && e != msg.ErrNoEnt
			next(e)
		})
		return
	}
	c.Create(path, false, func(_ msg.Attr, e msg.Errno) {
		if e == msg.ErrNoEnt {
			// The first one makes the directory; it counts as the operation.
			c.Create(fmt.Sprintf("%s/c%d", popDir, r.client), true, func(_ msg.Attr, e msg.Errno) { next(e) })
			return
		}
		r.scratch = e == msg.OK || e == msg.ErrExist
		next(e)
	})
}

// withHandle opens the file lazily (always for write so the handle serves
// both op kinds).
func (r *Runner) withHandle(file int, fn func(openFile, msg.Errno)) {
	if of, ok := r.handles[file]; ok {
		fn(of, msg.OK)
		return
	}
	c, path := r.cl.Clients[r.client], FilePath(file)
	c.Open(path, true, false,
		func(h msg.Handle, attr msg.Attr, errno msg.Errno) {
			of := openFile{h: h, ino: attr.Ino, sub: c.Owner(path)}
			if errno == msg.OK {
				r.handles[file] = of
			}
			fn(of, errno)
		})
}
