package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/msg"
)

// A workload is a generator and an executor per driver goroutine. The
// generator turns the seed into a sequence of ops and never looks at the
// system; the executor issues each op through a SyncClient and checks the
// answer. Keeping them apart is what lets a test assert that one seed
// always yields one sequence, whatever the timing.

type opKind uint8

const (
	opLookup opKind = iota
	opStat
	opCreate
	opUnlink
	opReaddir
	opRead
	opAppend
	opHandoff
)

// op is one generated call. a and b are the kind's arguments: a file and
// block index, a directory, a writer and a block.
type op struct {
	kind opKind
	a, b uint32
}

type opGen interface{ next() op }

type executor interface {
	// exec runs one op and returns how long its timed part took. A
	// non-nil error is a failed op: an error reply, a timeout, or an
	// answer that disagrees with the model.
	exec(o op) (time.Duration, error)
	// acked lists the blocks the system has acknowledged as stable, with
	// the contents each must hold.
	acked() []durable
}

type workload struct {
	name string
	why  string
	// metaPersist sets server.Config.MetaPersist.
	metaPersist bool
	// sharedOps says one operation is carried by every client, so the
	// trace attributes every span inside its interval to it.
	sharedOps bool
	// userBytes is the file data one operation writes.
	userBytes int
	// files is the namespace size the workload runs over.
	files int
	// rssOps is the operation at whose completion rss_peak_mb is read:
	// about the tenth second of a run on the sandbox this was built on,
	// which leaves a machine running at 60 % of that speed time to get
	// there.
	rssOps int
	// gens returns one generator per driver goroutine.
	gens func(seed int64) []opGen
	// populate creates what the ops need and returns one executor per
	// driver. It is the timed part of set-up besides the boot.
	populate func(in *installation, seed int64) ([]executor, error)
}

var workloads = []workload{
	metaWorkload("meta_storm", 50, false, 500000,
		"control transactions only: codec, transport, lease channel, server, lock and metadata layers work; cache, disks and media do nothing"),
	metaWorkload("meta_durable", 10, true, 5000,
		"the same mix with MetaPersist on: every reply first snapshots the whole store, so the cost is O(namespace) and a journal shows here alone"),
	{
		name: "scan_cold", files: nClients * scanFiles, rssOps: 550000,
		why:      "sequential reads over a working set 4x the cache: prefetch, cache fill/evict and the SAN read path work; the server sees 3 requests per 256 reads",
		gens:     scanGens,
		populate: scanPopulate,
	},
	{
		name: "append_sync", files: nClients, userBytes: appendBlocks * client.BlockSize, rssOps: 22000,
		why:      "append 32 KiB then sync: an AllocBlocks round trip per new block, copy-on-write in the cache, one vectored flush to the media; control and SAN both on the blocking chain",
		gens:     appendGens,
		populate: appendPopulate,
	},
	{
		name: "lock_handoff", files: 1, userBytes: client.BlockSize, sharedOps: true, rssOps: 55000,
		why:      "one client writes a block, the other must read it back: demand, flush, release, grant, SAN read in series; the price of safe sharing",
		gens:     handoffGens,
		populate: handoffPopulate,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// opSeqHash hashes the first n ops of every generator: the fingerprint of
// a seed's inputs.
func opSeqHash(w workload, seed int64, n int) uint64 {
	h := fnv.New64a()
	var b [9]byte
	for _, g := range w.gens(seed) {
		for i := 0; i < n; i++ {
			o := g.next()
			b[0] = byte(o.kind)
			binary.LittleEndian.PutUint32(b[1:], o.a)
			binary.LittleEndian.PutUint32(b[5:], o.b)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// driverSeed gives each driver its own stream.
func driverSeed(seed int64, d int) int64 { return seed*7919 + int64(d) + 1 }

// timed runs fn as one operation of driver drv on behalf of client cl
// (0 = every client) and, on the traced topology, records its span.
func (in *installation) timed(drv int, cl msg.NodeID, fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	if in.rec != nil && in.rec.enabled.Load() {
		end := in.rec.now()
		in.rec.drivers[drv] = append(in.rec.drivers[drv],
			span{start: end - int64(d), end: end, client: cl, layer: lOp})
	}
	return d, err
}

// inParallel runs fn once per client and returns the first error.
func inParallel(n int, fn func(c int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// --- block stamps -----------------------------------------------------------

// stamp identifies one version of one block. It is written into the head
// of the block, so a read can tell exactly which write it is seeing.
type stamp struct {
	client, file, idx, seq uint64
}

const (
	stampMagic = 0x54414e4b424e4348 // "TANKBNCH"
	stampLen   = 40
)

// filler is the rest of every block: fixed, not zero, and the same
// everywhere, so checking it costs one memcmp. Blocks still differ in
// their heads, so the client's content-addressed cache shares nothing.
var filler = func() []byte {
	b := make([]byte, client.BlockSize-stampLen)
	rand.New(rand.NewSource(1)).Read(b)
	return b
}()

func newBlock() []byte {
	b := make([]byte, client.BlockSize)
	copy(b[stampLen:], filler)
	return b
}

// setStamp rewrites the head of a block made by newBlock.
func setStamp(b []byte, s stamp) {
	binary.LittleEndian.PutUint64(b[0:], stampMagic)
	binary.LittleEndian.PutUint64(b[8:], s.client)
	binary.LittleEndian.PutUint64(b[16:], s.file)
	binary.LittleEndian.PutUint64(b[24:], s.idx)
	binary.LittleEndian.PutUint64(b[32:], s.seq)
}

func stamped(s stamp) []byte {
	b := newBlock()
	setStamp(b, s)
	return b
}

func checkStamp(data []byte, s stamp) error {
	if len(data) != client.BlockSize {
		return fmt.Errorf("read returned %d bytes", len(data))
	}
	var head [stampLen]byte
	setStamp(head[:], s)
	if !bytes.Equal(data[:stampLen], head[:]) || !bytes.Equal(data[stampLen:], filler) {
		return fmt.Errorf("block holds stamp %x, want %+v", data[:stampLen], s)
	}
	return nil
}

// writeFile fills blocks [0, n) of an open handle, last block first so
// that the server allocates the whole file in one AllocBlocks, and syncs.
func writeFile(sc *client.SyncClient, h msg.Handle, n int, st func(idx int) stamp) error {
	buf := newBlock()
	for i := 0; i < n; i++ {
		idx := (i + n - 1) % n
		setStamp(buf, st(idx))
		if err := sc.WriteAt(h, uint64(idx), buf); err != nil {
			return fmt.Errorf("write block %d: %w", idx, err)
		}
	}
	return sc.SyncAll()
}

// --- meta_storm, meta_durable ----------------------------------------------

const metaPerDir = 100

func metaWorkload(name string, dirs int, persist bool, rssOps int, why string) workload {
	return workload{
		name: name, why: why, metaPersist: persist, files: nClients * dirs * metaPerDir, rssOps: rssOps,
		gens: func(seed int64) []opGen {
			gs := make([]opGen, nClients)
			for c := range gs {
				gs[c] = newMetaGen(driverSeed(seed, c), dirs)
			}
			return gs
		},
		populate: func(in *installation, seed int64) ([]executor, error) {
			exs := make([]executor, nClients)
			err := inParallel(nClients, func(c int) error {
				ex, err := newMetaExec(in, c, dirs)
				exs[c] = ex
				return err
			})
			return exs, err
		},
	}
}

// metaGen draws lookup 60 / stat 15 / create 10 / unlink 10 / readdir 5
// over a client's private tree and tracks which files exist, so that
// every op it emits succeeds: creates name a missing file, everything
// else an existing one.
type metaGen struct {
	rng        *rand.Rand
	dirs       int
	live, dead []uint32
	pos        []int // a file's position in whichever list holds it
}

func newMetaGen(seed int64, dirs int) *metaGen {
	n := dirs * metaPerDir
	g := &metaGen{rng: rand.New(rand.NewSource(seed)), dirs: dirs,
		live: make([]uint32, n), pos: make([]int, n)}
	for f := range g.live {
		g.live[f] = uint32(f)
		g.pos[f] = f
	}
	return g
}

// move takes the file at from[i] to the end of to.
func (g *metaGen) move(from, to *[]uint32, i int) uint32 {
	f := (*from)[i]
	last := len(*from) - 1
	(*from)[i] = (*from)[last]
	g.pos[(*from)[i]] = i
	*from = (*from)[:last]
	g.pos[f] = len(*to)
	*to = append(*to, f)
	return f
}

func (g *metaGen) next() op {
	pick := func() uint32 { return g.live[g.rng.Intn(len(g.live))] }
	switch r := g.rng.Intn(100); {
	case r < 60:
		return op{kind: opLookup, a: pick()}
	case r < 75:
		return op{kind: opStat, a: pick()}
	case r < 95:
		// Create when drawn and possible; unlink otherwise, unless that
		// would empty the tree below half.
		create := r < 85
		if len(g.dead) == 0 {
			create = false
		} else if len(g.live) <= len(g.pos)/2 {
			create = true
		}
		if create {
			return op{kind: opCreate, a: g.move(&g.dead, &g.live, g.rng.Intn(len(g.dead)))}
		}
		return op{kind: opUnlink, a: g.move(&g.live, &g.dead, g.rng.Intn(len(g.live)))}
	default:
		return op{kind: opReaddir, a: uint32(g.rng.Intn(g.dirs))}
	}
}

// metaExec is the model the replies are checked against: the inode of
// every file that exists, learnt from the creates' own replies.
type metaExec struct {
	in       *installation
	c        int
	sc       *client.SyncClient
	paths    []string // file → path
	ino      []msg.ObjectID
	dirIno   []msg.ObjectID
	dirCount []int
}

func newMetaExec(in *installation, c, dirs int) (*metaExec, error) {
	e := &metaExec{in: in, c: c, sc: in.clients[c],
		paths: make([]string, dirs*metaPerDir), ino: make([]msg.ObjectID, dirs*metaPerDir),
		dirIno: make([]msg.ObjectID, dirs), dirCount: make([]int, dirs)}
	root := fmt.Sprintf("/w%d", c)
	if _, err := e.sc.Create(root, true); err != nil {
		return nil, fmt.Errorf("create %s: %w", root, err)
	}
	for d := 0; d < dirs; d++ {
		dir := fmt.Sprintf("%s/d%d", root, d)
		attr, err := e.sc.Create(dir, true)
		if err != nil {
			return nil, fmt.Errorf("create %s: %w", dir, err)
		}
		e.dirIno[d] = attr.Ino
		for k := 0; k < metaPerDir; k++ {
			f := d*metaPerDir + k
			e.paths[f] = fmt.Sprintf("%s/f%d", dir, k)
			attr, err := e.sc.Create(e.paths[f], false)
			if err != nil {
				return nil, fmt.Errorf("create %s: %w", e.paths[f], err)
			}
			e.ino[f] = attr.Ino
		}
		e.dirCount[d] = metaPerDir
	}
	return e, nil
}

func (e *metaExec) acked() []durable { return nil }

func (e *metaExec) exec(o op) (time.Duration, error) {
	return e.in.timed(e.c, firstClient+msg.NodeID(e.c), func() error {
		f := int(o.a)
		switch o.kind {
		case opLookup:
			attr, err := e.sc.Lookup(e.paths[f])
			if err == nil && (attr.Ino != e.ino[f] || attr.IsDir) {
				err = fmt.Errorf("lookup %s: got %+v, want ino %v", e.paths[f], attr, e.ino[f])
			}
			return err
		case opStat:
			attr, err := e.sc.Stat(e.ino[f])
			if err == nil && (attr.Ino != e.ino[f] || attr.IsDir) {
				err = fmt.Errorf("stat %v: got %+v", e.ino[f], attr)
			}
			return err
		case opCreate:
			attr, err := e.sc.Create(e.paths[f], false)
			if err != nil {
				return err
			}
			if attr.Ino == 0 || attr.IsDir {
				return fmt.Errorf("create %s: got %+v", e.paths[f], attr)
			}
			e.ino[f] = attr.Ino
			e.dirCount[f/metaPerDir]++
			return nil
		case opUnlink:
			if err := e.sc.Unlink(e.paths[f]); err != nil {
				return err
			}
			e.ino[f] = 0
			e.dirCount[f/metaPerDir]--
			return nil
		default:
			d := int(o.a)
			entries, err := e.sc.Readdir(e.dirIno[d])
			if err != nil {
				return err
			}
			if len(entries) != e.dirCount[d] {
				return fmt.Errorf("readdir d%d: %d entries, want %d", d, len(entries), e.dirCount[d])
			}
			for _, ent := range entries {
				k, err := strconv.Atoi(ent.Name[1:])
				if err != nil || k < 0 || k >= metaPerDir || ent.Ino != e.ino[d*metaPerDir+k] {
					return fmt.Errorf("readdir d%d: unexpected entry %+v", d, ent)
				}
			}
			return nil
		}
	})
}

// --- scan_cold ---------------------------------------------------------------

const (
	scanFiles  = 16
	scanBlocks = 256 // 16 files x 256 blocks x 4 KiB = 16 MiB per client
)

func scanPath(c int, f uint32) string { return fmt.Sprintf("/s%d-%d", c, f) }

// scanGen walks a client's files block by block, in an order the seed
// fixes, forever.
type scanGen struct {
	order []int
	file  int // position in order
	idx   uint32
}

func scanGens(seed int64) []opGen {
	gs := make([]opGen, nClients)
	for c := range gs {
		rng := rand.New(rand.NewSource(driverSeed(seed, c)))
		gs[c] = &scanGen{order: rng.Perm(scanFiles)}
	}
	return gs
}

func (g *scanGen) next() op {
	o := op{kind: opRead, a: uint32(g.order[g.file]), b: g.idx}
	if g.idx++; g.idx == scanBlocks {
		g.idx = 0
		g.file = (g.file + 1) % scanFiles
	}
	return o
}

type scanExec struct {
	in   *installation
	c    int
	sc   *client.SyncClient
	h    msg.Handle
	open bool
}

func scanPopulate(in *installation, seed int64) ([]executor, error) {
	exs := make([]executor, nClients)
	err := inParallel(nClients, func(c int) error {
		sc := in.clients[c]
		for f := uint32(0); f < scanFiles; f++ {
			h, _, err := sc.Open(scanPath(c, f), true, true)
			if err != nil {
				return fmt.Errorf("open %s: %w", scanPath(c, f), err)
			}
			err = writeFile(sc, h, scanBlocks, func(idx int) stamp {
				return stamp{client: uint64(c), file: uint64(f), idx: uint64(idx)}
			})
			if err != nil {
				return fmt.Errorf("fill %s: %w", scanPath(c, f), err)
			}
			if err := sc.Close(h); err != nil {
				return fmt.Errorf("close %s: %w", scanPath(c, f), err)
			}
		}
		exs[c] = &scanExec{in: in, c: c, sc: sc}
		return nil
	})
	return exs, err
}

func (e *scanExec) acked() []durable { return nil }

// exec times the ReadAt alone. The Open before a file's first block and
// the Close after its last are what keep the lease renewed for free; they
// run inside the window but outside the timed operation.
func (e *scanExec) exec(o op) (time.Duration, error) {
	if !e.open {
		h, _, err := e.sc.Open(scanPath(e.c, o.a), false, false)
		if err != nil {
			return 0, fmt.Errorf("open %s: %w", scanPath(e.c, o.a), err)
		}
		e.h, e.open = h, true
	}
	d, err := e.in.timed(e.c, firstClient+msg.NodeID(e.c), func() error {
		data, err := e.sc.ReadAt(e.h, uint64(o.b))
		if err != nil {
			return err
		}
		return checkStamp(data, stamp{client: uint64(e.c), file: uint64(o.a), idx: uint64(o.b)})
	})
	if err == nil && o.b == scanBlocks-1 {
		e.open = false
		err = e.sc.Close(e.h)
	}
	return d, err
}

// --- append_sync -------------------------------------------------------------

const (
	appendBlocks = 8    // blocks per operation
	appendLimit  = 1024 // file length at which it is truncated to empty
)

func appendPath(c int) string { return fmt.Sprintf("/a%d", c) }

// appendGen has no choices to make: the op sequence is the same for
// every seed, and the seed only salts the stamps (op.b).
type appendGen struct {
	at   uint32
	salt uint32
}

func appendGens(seed int64) []opGen {
	gs := make([]opGen, nClients)
	for c := range gs {
		gs[c] = &appendGen{salt: uint32(driverSeed(seed, c))}
	}
	return gs
}

func (g *appendGen) next() op {
	o := op{kind: opAppend, a: g.at, b: g.salt}
	g.at = (g.at + appendBlocks) % appendLimit
	return o
}

type appendExec struct {
	in  *installation
	c   int
	sc  *client.SyncClient
	h   msg.Handle
	buf []byte
	seq uint64
	// held is the stamp of every block the file now holds; all of them
	// have been through a SyncAll.
	held []stamp
}

func appendPopulate(in *installation, seed int64) ([]executor, error) {
	exs := make([]executor, nClients)
	for c := range exs {
		h, _, err := in.clients[c].Open(appendPath(c), true, true)
		if err != nil {
			return nil, fmt.Errorf("open %s: %w", appendPath(c), err)
		}
		exs[c] = &appendExec{in: in, c: c, sc: in.clients[c], h: h, buf: newBlock()}
	}
	return exs, nil
}

func (e *appendExec) acked() []durable {
	out := make([]durable, len(e.held))
	for i, s := range e.held {
		out[i] = durable{path: appendPath(e.c), idx: i, want: s}
	}
	return out
}

// exec appends and syncs. When the file is full the op wraps to block 0:
// the truncate that makes room runs first, untimed — Unlink would be
// refused while this client still caches the file's data lock.
func (e *appendExec) exec(o op) (time.Duration, error) {
	if o.a == 0 && len(e.held) > 0 {
		if err := e.sc.Truncate(e.h, 0); err != nil {
			return 0, fmt.Errorf("truncate: %w", err)
		}
		e.held = e.held[:0]
	}
	return e.in.timed(e.c, firstClient+msg.NodeID(e.c), func() error {
		e.seq++
		first := len(e.held)
		for i := 0; i < appendBlocks; i++ {
			s := stamp{client: uint64(e.c), file: uint64(o.b), idx: uint64(o.a) + uint64(i), seq: e.seq}
			setStamp(e.buf, s)
			if err := e.sc.WriteAt(e.h, s.idx, e.buf); err != nil {
				e.held = e.held[:first]
				return err
			}
			e.held = append(e.held, s)
		}
		if err := e.sc.SyncAll(); err != nil {
			e.held = e.held[:first]
			return err
		}
		return nil
	})
}

// --- lock_handoff ------------------------------------------------------------

const (
	handoffPath   = "/shared"
	handoffBlocks = 16
)

// handoffGen picks the block; the writer alternates.
type handoffGen struct {
	rng *rand.Rand
	n   uint32
}

func handoffGens(seed int64) []opGen {
	return []opGen{&handoffGen{rng: rand.New(rand.NewSource(driverSeed(seed, 0)))}}
}

func (g *handoffGen) next() op {
	g.n++
	return op{kind: opHandoff, a: g.n % nClients, b: uint32(g.rng.Intn(handoffBlocks))}
}

type handoffExec struct {
	in   *installation
	h    [nClients]msg.Handle
	buf  []byte
	seq  uint64
	last [handoffBlocks]stamp
}

func handoffPopulate(in *installation, seed int64) ([]executor, error) {
	e := &handoffExec{in: in, buf: newBlock()}
	for c, sc := range in.clients {
		h, _, err := sc.Open(handoffPath, true, c == 0)
		if err != nil {
			return nil, fmt.Errorf("open %s: %w", handoffPath, err)
		}
		e.h[c] = h
		if c == 0 {
			err := writeFile(sc, h, handoffBlocks, func(idx int) stamp {
				e.last[idx] = stamp{idx: uint64(idx)}
				return e.last[idx]
			})
			if err != nil {
				return nil, fmt.Errorf("fill %s: %w", handoffPath, err)
			}
		}
	}
	return []executor{e}, nil
}

func (e *handoffExec) acked() []durable {
	out := make([]durable, handoffBlocks)
	for i, s := range e.last {
		out[i] = durable{path: handoffPath, idx: i, want: s}
	}
	return out
}

// exec is one handoff: the writer's WriteAt stays in its cache until the
// reader's ReadAt makes the server demand the lock back, which forces the
// flush. When the read returns the stamp, the block is on stable storage.
func (e *handoffExec) exec(o op) (time.Duration, error) {
	return e.in.timed(0, 0, func() error {
		w, r := int(o.a), 1-int(o.a)
		e.seq++
		s := stamp{client: uint64(w), idx: uint64(o.b), seq: e.seq}
		setStamp(e.buf, s)
		if err := e.in.clients[w].WriteAt(e.h[w], s.idx, e.buf); err != nil {
			return fmt.Errorf("write: %w", err)
		}
		data, err := e.in.clients[r].ReadAt(e.h[r], s.idx)
		if err != nil {
			return fmt.Errorf("read: %w", err)
		}
		if err := checkStamp(data, s); err != nil {
			return err
		}
		e.last[o.b] = s
		return nil
	})
}
