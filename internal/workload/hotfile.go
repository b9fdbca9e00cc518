package workload

// The shared-hot-file workload: one file every client touches, a pool of
// readers sequentially scanning it end to end (the access pattern the
// client's read-ahead detector targets) and one writer rewriting blocks
// from a small content alphabet (the pattern the content-addressed cache
// dedups — many block indices, few distinct contents). It is the
// adversarial case for the cache bookkeeping: shared clean content,
// concurrent invalidation by the writer's exclusive-lock demands, and
// read-ahead racing both.

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/msg"
)

// HotFilePath names the shared hot file.
const HotFilePath = "/hot"

// HotFileConfig shapes the shared-hot-file workload.
type HotFileConfig struct {
	// Blocks is the size of the hot file.
	Blocks int
	// Alphabet is the number of distinct block contents; the expected
	// dedup factor of a warm scan is Blocks/Alphabet.
	Alphabet int
	// Readers are the client indices that sequentially scan the file.
	Readers []int
	// Writer is the client index that rewrites blocks, or -1 for a
	// read-only run.
	Writer int
	// ReaderThink separates a reader's consecutive full scans.
	ReaderThink time.Duration
	// WriteEvery is the writer's cadence: one block rewrite per tick.
	WriteEvery time.Duration
}

// DefaultHotFile returns the standard shared-hot-file shape: a 16-block
// file with 4 distinct contents, rescanned continuously.
func DefaultHotFile() HotFileConfig {
	return HotFileConfig{
		Blocks:      16,
		Alphabet:    4,
		Writer:      0,
		ReaderThink: 50 * time.Millisecond,
		WriteEvery:  200 * time.Millisecond,
	}
}

// HotContent returns block content k of the alphabet: a full block of a
// single distinguishing byte, so contents collide exactly when k does.
func HotContent(alphabet, k int) []byte {
	data := make([]byte, cluster.BlockSize)
	for i := range data {
		data[i] = byte('A' + k%alphabet)
	}
	return data
}

// PopulateHotFile creates the hot file with its initial alphabet-cycled
// contents and releases the populating lock so readers start symmetric.
func PopulateHotFile(cl *cluster.Cluster, cfg HotFileConfig) {
	sc := cl.SyncClient(0)
	h, attr, err := sc.Open(HotFilePath, true, true)
	if err != nil {
		panic(fmt.Sprintf("workload: hot-file open: %v", err))
	}
	for b := 0; b < cfg.Blocks; b++ {
		if err := sc.WriteAt(h, uint64(b), HotContent(cfg.Alphabet, b)); err != nil {
			panic(fmt.Sprintf("workload: hot-file write: %v", err))
		}
	}
	if err := sc.SyncAll(); err != nil {
		panic(fmt.Sprintf("workload: hot-file sync: %v", err))
	}
	if err := sc.Close(h); err != nil {
		panic(fmt.Sprintf("workload: hot-file close: %v", err))
	}
	_ = sc.Owner(HotFilePath).ReleaseLock(attr.Ino)
}

// HotFile drives the workload on a started cluster. Like Runner it is
// fully event-driven: every completion schedules the next step.
type HotFile struct {
	cl      *cluster.Cluster
	cfg     HotFileConfig
	stopped bool

	handles  map[int]msg.Handle // reader client index → open handle
	writerH  msg.Handle
	writerOK bool

	// Scans counts completed full sequential scans across all readers;
	// Rewrites counts writer block updates; Errors counts failed ops
	// (lock churn mid-steal, stale handles, ...).
	Scans    uint64
	Rewrites uint64
	Errors   uint64
}

// NewHotFile creates the workload driver for a populated cluster.
func NewHotFile(cl *cluster.Cluster, cfg HotFileConfig) *HotFile {
	return &HotFile{cl: cl, cfg: cfg, handles: make(map[int]msg.Handle)}
}

// Start launches every reader and the writer.
func (hf *HotFile) Start() {
	for _, r := range hf.cfg.Readers {
		r := r
		hf.cl.Sched.After(0, func() { hf.startScan(r) })
	}
	if hf.cfg.Writer >= 0 {
		hf.cl.Sched.After(hf.cfg.WriteEvery, hf.writerTick)
	}
}

// Stop halts all loops after their in-flight operation.
func (hf *HotFile) Stop() { hf.stopped = true }

func (hf *HotFile) rescanAfter(r int, d time.Duration) {
	if hf.stopped {
		return
	}
	hf.cl.Sched.After(d, func() { hf.startScan(r) })
}

func (hf *HotFile) startScan(r int) {
	if hf.stopped {
		return
	}
	h, ok := hf.handles[r]
	if !ok {
		hf.cl.Clients[r].Open(HotFilePath, false, false,
			func(h msg.Handle, _ msg.Attr, errno msg.Errno) {
				if errno != msg.OK {
					hf.Errors++
					hf.rescanAfter(r, hf.cfg.ReaderThink)
					return
				}
				hf.handles[r] = h
				hf.scanBlock(r, h, 0)
			})
		return
	}
	hf.scanBlock(r, h, 0)
}

func (hf *HotFile) scanBlock(r int, h msg.Handle, idx uint64) {
	if hf.stopped {
		return
	}
	hf.cl.Clients[r].Read(h, idx, func(_ []byte, errno msg.Errno) {
		if errno != msg.OK {
			hf.Errors++
			if errno == msg.ErrBadHandle || errno == msg.ErrStale {
				delete(hf.handles, r) // invalidated by recovery: reopen
			}
			hf.rescanAfter(r, hf.cfg.ReaderThink)
			return
		}
		if idx+1 < uint64(hf.cfg.Blocks) {
			hf.scanBlock(r, h, idx+1)
			return
		}
		hf.Scans++
		hf.rescanAfter(r, hf.cfg.ReaderThink)
	})
}

func (hf *HotFile) writerTick() {
	if hf.stopped {
		return
	}
	w := hf.cfg.Writer
	if !hf.writerOK {
		hf.cl.Clients[w].Open(HotFilePath, true, false,
			func(h msg.Handle, _ msg.Attr, errno msg.Errno) {
				if errno != msg.OK {
					hf.Errors++
					hf.cl.Sched.After(hf.cfg.WriteEvery, hf.writerTick)
					return
				}
				hf.writerH, hf.writerOK = h, true
				hf.writerTick()
			})
		return
	}
	// Rewrite the next block with the next alphabet content: contents
	// stay within the alphabet, so dedup keeps working across rewrites.
	n := hf.Rewrites
	blk := n % uint64(hf.cfg.Blocks)
	data := HotContent(hf.cfg.Alphabet, int(blk+n/uint64(hf.cfg.Blocks)+1))
	hf.cl.Clients[w].Write(hf.writerH, blk, data, func(errno msg.Errno) {
		if errno != msg.OK {
			hf.Errors++
			if errno == msg.ErrBadHandle || errno == msg.ErrStale {
				hf.writerOK = false
			}
		} else {
			hf.Rewrites++
		}
		hf.cl.Sched.After(hf.cfg.WriteEvery, hf.writerTick)
	})
}
