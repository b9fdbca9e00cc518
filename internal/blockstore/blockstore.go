// Package blockstore is the media layer of a SAN block device: the thing
// underneath internal/disk that actually keeps block contents, version
// stamps, and the fence table.
//
// The paper's safety argument (§2.1, §4) terminates at stable storage: a
// phase-4 expected-failure flush is only safe if the blocks it writes
// survive, and fencing is only a backstop if the fence table survives the
// disk controller. This package supplies both halves of that contract:
//
//   - Mem is the simulator's media: plain maps, no I/O, deterministic to
//     the byte. It is the default a disk.Disk is built with, so every
//     existing simulation runs unchanged.
//   - File is the live deployment's media: one append-free data file
//     addressed by block number (pread/pwrite at block·BlockSize), a
//     per-block trailer holding the version stamp and a CRC32C of the
//     block for torn-write detection, and a write-ahead fence journal
//     whose records are fsynced before a FenceSet is acknowledged. Open replays
//     the journal and verifies every written block's checksum, so a
//     disk-node restart recovers exactly the state it acknowledged.
//
// Write ordering in File is data-then-trailer: a crash between the two
// leaves a trailer whose CRC does not match the block, which recovery
// reports as torn and Read refuses to serve (ErrTorn) — a torn write is
// detected, never silently served as a mix of old and new bytes. Because
// a write is only acknowledged (the disk's DiskWriteRes) after both
// pwrites and the configured sync complete, an acknowledged write can
// never be torn by a crash.
package blockstore

import (
	"errors"
	"fmt"
	"sort"
)

// BlockSize is the data block size, identical to disk.BlockSize (the
// constant lives here so the media layer does not import its consumer).
const BlockSize = 4096

// ErrTorn marks a block whose trailer checksum does not match its data:
// a write was interrupted between the data and trailer updates. Reads of
// a torn block fail with an error wrapping ErrTorn until the block is
// rewritten.
var ErrTorn = errors.New("blockstore: torn block")

// Media is the storage a disk.Disk serves from. Implementations are not
// required to be concurrency-safe: the disk funnels all access through
// its single-actuator executor, exactly as the device model demands.
type Media interface {
	// Read returns a block's stable contents and version stamp. The
	// returned slice may be the store's internal buffer and is read-only:
	// the caller must not mutate it, and it stays valid until the block
	// is rewritten. ok is false for a never-written block (the device
	// serves zeros). A torn block returns an error wrapping ErrTorn;
	// other errors are media failures.
	Read(block uint64) (data []byte, ver uint64, ok bool, err error)
	// ReadV is the vectored read: blocks[i] is served into
	// dst[i·BlockSize:(i+1)·BlockSize] — the caller's buffer, whose
	// contents on entry are undefined and which ReadV fills completely —
	// with its version stamp in vers[i]. Every judgment Read makes is
	// made per block: a never-written block is zeros with version 0, a
	// torn block or a media failure is errs[i] (wrapping ErrTorn for the
	// former) over a zeroed slot, and the blocks around it are served.
	// errs is nil when every block was served. The file-backed media
	// moves each maximal run of adjacent block numbers in one pread.
	// len(dst) must be len(blocks)·BlockSize and len(vers) len(blocks).
	ReadV(blocks []uint64, dst []byte, vers []uint64) (errs []error)
	// Write durably stores one block (at most BlockSize bytes; short
	// writes are zero-padded) with its version stamp. The caller must
	// not acknowledge the write until Write returns nil.
	Write(block uint64, data []byte, ver uint64) error
	// WriteV durably stores a batch of blocks and returns one result per
	// entry (nil = committed). The durability contract is the batch
	// analogue of Write's: when WriteV returns, every entry whose result
	// is nil is stable — the file-backed media writes all data and
	// trailers first — one pwrite of data and one of trailers per run
	// of adjacent block numbers — and then issues a SINGLE group-commit
	// fsync, so a batch costs one stabilization instead of one per block
	// and two system calls per run instead of two per block. Entries
	// that fail individually (bad length, media error) do not prevent
	// the rest of the batch from committing.
	WriteV(batch []BlockWrite) []error
	// RaiseFence durably raises f's pair in the fence table to f.Below; a
	// fence at or below the one in place changes nothing. The caller must
	// not acknowledge the fence operation until RaiseFence returns nil.
	RaiseFence(f Fence) error
	// Fences returns the fence table, which the media keeps current; the
	// caller only reads it.
	Fences() *Fences
	// Recovery reports what the open-time recovery pass found. For
	// freshly-created media the report is zero.
	Recovery() RecoveryReport
	// Close releases the media. The store must already be durable at
	// every acknowledged operation; Close adds nothing to durability.
	Close() error
}

// BlockWrite is one element of a vectored write: Write's arguments as a
// value.
type BlockWrite struct {
	Block uint64
	Data  []byte
	Ver   uint64
}

// RecoveryReport describes an open-time recovery pass over existing
// on-media state.
type RecoveryReport struct {
	// Recovered is true when the media was opened from existing files
	// (false for a fresh create or an in-memory store).
	Recovered bool
	// JournalRecords is the number of fence-journal records replayed.
	JournalRecords int
	// Fenced is the fence table after replay (Fences.All).
	Fenced []Fence
	// Verified counts written blocks whose checksum matched.
	Verified uint64
	// Torn lists blocks whose trailer and data disagree, sorted.
	Torn []uint64
}

// String renders the report for logs ("recovered journal=3 fenced=1
// verified=40 torn=[7]").
func (r RecoveryReport) String() string {
	return fmt.Sprintf("recovered=%v journal=%d fenced=%d verified=%d torn=%v",
		r.Recovered, r.JournalRecords, len(r.Fenced), r.Verified, r.Torn)
}

func sortReport(r *RecoveryReport) {
	sort.Slice(r.Torn, func(i, j int) bool { return r.Torn[i] < r.Torn[j] })
}
