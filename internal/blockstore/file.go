package blockstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/bufpool"
	"repro/internal/msg"
	"repro/internal/stats"
)

// On-media layout. Three files in one directory:
//
//	data.blk   block b's 4 KiB of data at offset b·BlockSize (append-free:
//	           every write is a pwrite at its final address)
//	meta.blk   a 4 KiB superblock, then one 24-byte trailer per block at
//	           superSize + b·trailerSize
//	fence.wal  the write-ahead fence journal: 12-byte records appended
//	           and fsynced before a FenceSet is acknowledged
//
// Trailer record: ver u64 | dataCRC u32 | flags u32 | recCRC u32 | pad.
// dataCRC is CRC32C over the full zero-padded block; recCRC covers the
// first 16 bytes, so a trailer torn mid-sector is itself detectable.
//
// Journal record: target u32 | on u32 | recCRC u32 (over the first 8).
// Replay stops at the first record whose CRC fails — a torn journal tail
// loses only unacknowledged fence operations.
const (
	dataFileName  = "data.blk"
	metaFileName  = "meta.blk"
	fenceFileName = "fence.wal"

	superSize   = 4096
	trailerSize = 24
	fenceRecLen = 12

	flagWritten = 1 << 0
)

var (
	superMagic = [8]byte{'T', 'A', 'N', 'K', 'B', 'L', 'K', '1'}
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// DataPath returns the path of the store's data file — exported so crash
// harnesses can tear blocks the way a mid-write power cut would.
func DataPath(dir string) string { return filepath.Join(dir, dataFileName) }

// DataOffset returns block's byte offset within the data file.
func DataOffset(block uint64) int64 { return int64(block) * BlockSize }

// Options configures a file-backed store.
type Options struct {
	// Blocks is the device capacity. Required when creating; when opening
	// an existing store it must match the superblock (0 accepts whatever
	// the superblock records).
	Blocks uint64
	// NoSync skips every fsync (NewSyncer); tests use it to keep bursts
	// fast.
	NoSync bool
	// Registry, when non-nil, receives the store's instruments under
	// StatsPrefix: its Syncer's, journal records, fsyncs saved by group
	// commit, and the read and write runs.
	Registry    *stats.Registry
	StatsPrefix string
}

type blockState struct {
	ver  uint64
	crc  uint32
	torn bool
}

// File is the durable media serving live disk nodes. Not concurrency-safe
// by design: the owning disk serializes access (single actuator).
type File struct {
	dir      string
	capacity uint64
	syncer   *Syncer

	data  *os.File
	meta  *os.File
	fence *os.File

	index    map[uint64]blockState
	fenced   map[msg.NodeID]bool
	walSize  int64
	recovery RecoveryReport
	// trailers is stageRun's scratch, one record per block of the run: a
	// local buffer would be moved to the heap on every call, because
	// WriteAt's argument escapes.
	trailers []byte

	journalRec  *stats.Counter
	fsyncsSaved *stats.Counter
	// A run is one pread (or one data pwrite plus one trailer pwrite):
	// run_blocks/runs is blocks moved per system call.
	readRuns, readRunBlocks   *stats.Counter
	writeRuns, writeRunBlocks *stats.Counter
}

// Open creates or recovers a file-backed store in dir. On an existing
// store it replays the fence journal, verifies the checksum of every
// written block, and records the outcome in Recovery(). A store it
// creates, and any directory it makes for one, is durable by the time
// it returns: the files' names are fsynced into their directory.
func Open(dir string, opts Options) (*File, error) {
	f := &File{
		dir:    dir,
		syncer: NewSyncer(opts.Registry, opts.StatsPrefix, opts.NoSync),
		index:  make(map[uint64]blockState),
		fenced: make(map[msg.NodeID]bool),
	}
	if opts.Registry != nil {
		f.journalRec = opts.Registry.Counter(opts.StatsPrefix + "journal_records")
		f.fsyncsSaved = opts.Registry.Counter(opts.StatsPrefix + "fsyncs_saved")
		f.readRuns = opts.Registry.Counter(opts.StatsPrefix + "read_runs")
		f.readRunBlocks = opts.Registry.Counter(opts.StatsPrefix + "read_run_blocks")
		f.writeRuns = opts.Registry.Counter(opts.StatsPrefix + "write_runs")
		f.writeRunBlocks = opts.Registry.Counter(opts.StatsPrefix + "write_run_blocks")
	}
	if err := f.open(opts.Blocks); err != nil {
		// Nothing acknowledged was written through the handles; the open
		// error is the one the caller must see.
		_ = f.Close()
		return nil, err
	}
	return f, nil
}

// open creates the store's files, or recovers them, for Open.
func (f *File) open(blocks uint64) error {
	if err := f.syncer.mkdirAll(f.dir); err != nil {
		return fmt.Errorf("blockstore: %w", err)
	}
	var err error
	if f.meta, err = os.OpenFile(filepath.Join(f.dir, metaFileName), os.O_RDWR|os.O_CREATE, 0o644); err != nil {
		return fmt.Errorf("blockstore: %w", err)
	}
	if f.data, err = os.OpenFile(filepath.Join(f.dir, dataFileName), os.O_RDWR|os.O_CREATE, 0o644); err != nil {
		return fmt.Errorf("blockstore: %w", err)
	}
	if f.fence, err = os.OpenFile(filepath.Join(f.dir, fenceFileName), os.O_RDWR|os.O_CREATE, 0o644); err != nil {
		return fmt.Errorf("blockstore: %w", err)
	}
	st, err := f.meta.Stat()
	if err != nil {
		return fmt.Errorf("blockstore: %w", err)
	}
	if st.Size() == 0 {
		if blocks == 0 {
			return fmt.Errorf("blockstore: creating %s: Options.Blocks must be set", f.dir)
		}
		f.capacity = blocks
		if err := f.writeSuper(); err != nil {
			return err
		}
		// The directory fsync makes the three files' names durable.
		if err := f.syncer.syncDir(f.dir); err != nil {
			return fmt.Errorf("blockstore: %w", err)
		}
		return nil
	}
	if err := f.readSuper(blocks); err != nil {
		return err
	}
	if err := f.recoverBlocks(); err != nil {
		return err
	}
	if err := f.recoverFences(); err != nil {
		return err
	}
	f.recovery.Recovered = true
	sortReport(&f.recovery)
	return nil
}

func (f *File) writeSuper() error {
	buf := make([]byte, superSize)
	copy(buf, superMagic[:])
	binary.LittleEndian.PutUint32(buf[8:], BlockSize)
	binary.LittleEndian.PutUint32(buf[12:], trailerSize)
	binary.LittleEndian.PutUint64(buf[16:], f.capacity)
	binary.LittleEndian.PutUint32(buf[24:], crc32.Checksum(buf[:24], castagnoli))
	if _, err := f.meta.WriteAt(buf, 0); err != nil {
		return fmt.Errorf("blockstore: superblock: %w", err)
	}
	return f.sync(f.meta)
}

func (f *File) readSuper(wantBlocks uint64) error {
	buf := make([]byte, superSize)
	if _, err := io.ReadFull(io.NewSectionReader(f.meta, 0, superSize), buf); err != nil {
		return fmt.Errorf("blockstore: superblock read: %w", err)
	}
	if [8]byte(buf[:8]) != superMagic {
		return fmt.Errorf("blockstore: %s: bad magic", f.dir)
	}
	if crc := binary.LittleEndian.Uint32(buf[24:]); crc != crc32.Checksum(buf[:24], castagnoli) {
		return fmt.Errorf("blockstore: %s: superblock checksum mismatch", f.dir)
	}
	if bs := binary.LittleEndian.Uint32(buf[8:]); bs != BlockSize {
		return fmt.Errorf("blockstore: %s: block size %d, built for %d", f.dir, bs, BlockSize)
	}
	f.capacity = binary.LittleEndian.Uint64(buf[16:])
	if wantBlocks != 0 && wantBlocks != f.capacity {
		return fmt.Errorf("blockstore: %s: capacity %d blocks, asked for %d", f.dir, f.capacity, wantBlocks)
	}
	return nil
}

// recoverBlocks scans every trailer and re-checksums each written block:
// the open-time verification pass. A trailer whose own CRC fails, or a
// block whose data no longer matches its trailer's CRC, is torn.
func (f *File) recoverBlocks() error {
	st, err := f.meta.Stat()
	if err != nil {
		return fmt.Errorf("blockstore: %w", err)
	}
	nTrailers := (st.Size() - superSize) / trailerSize
	rec := make([]byte, trailerSize)
	blockBuf := make([]byte, BlockSize)
	for i := int64(0); i < nTrailers; i++ {
		if _, err := io.ReadFull(io.NewSectionReader(f.meta, superSize+i*trailerSize, trailerSize), rec); err != nil {
			return fmt.Errorf("blockstore: trailer %d: %w", i, err)
		}
		ver := binary.LittleEndian.Uint64(rec[0:])
		dataCRC := binary.LittleEndian.Uint32(rec[8:])
		flags := binary.LittleEndian.Uint32(rec[12:])
		recCRC := binary.LittleEndian.Uint32(rec[16:])
		if flags&flagWritten == 0 && recCRC == 0 && ver == 0 && dataCRC == 0 {
			continue // never-written hole
		}
		block := uint64(i)
		if recCRC != crc32.Checksum(rec[:16], castagnoli) {
			f.markTorn(block)
			continue
		}
		if flags&flagWritten == 0 {
			continue
		}
		n, err := f.data.ReadAt(blockBuf, DataOffset(block))
		if err != nil && (err != io.EOF || n != BlockSize) {
			f.markTorn(block)
			continue
		}
		if crc32.Checksum(blockBuf, castagnoli) != dataCRC {
			f.markTorn(block)
			continue
		}
		f.index[block] = blockState{ver: ver, crc: dataCRC}
		f.recovery.Verified++
	}
	return nil
}

func (f *File) markTorn(block uint64) {
	f.index[block] = blockState{torn: true}
	f.recovery.Torn = append(f.recovery.Torn, block)
}

// recoverFences replays the journal, then compacts it so the file stays
// proportional to the live fence table rather than to history.
// A journal that cannot be read fails the open: treating the unread part
// as a torn tail could forget an acknowledged fence.
func (f *File) recoverFences() error {
	log, err := io.ReadAll(f.fence)
	if err != nil {
		return fmt.Errorf("blockstore: fence journal: %w", err)
	}
	for ; len(log) >= fenceRecLen; log = log[fenceRecLen:] {
		if binary.LittleEndian.Uint32(log[8:]) != crc32.Checksum(log[:8], castagnoli) {
			break // torn tail: an unacknowledged append
		}
		target := msg.NodeID(int32(binary.LittleEndian.Uint32(log[0:])))
		if binary.LittleEndian.Uint32(log[4:]) != 0 {
			f.fenced[target] = true
		} else {
			delete(f.fenced, target)
		}
		f.recovery.JournalRecords++
	}
	for id := range f.fenced {
		f.recovery.Fenced = append(f.recovery.Fenced, id)
	}
	return f.compactJournal()
}

// compactJournal rewrites the journal as one set-record per live fence,
// installed atomically in place of the one just replayed.
func (f *File) compactJournal() error {
	var buf []byte
	for id := range f.fenced {
		buf = append(buf, fenceRecord(id, true)...)
	}
	fence, err := f.syncer.Install(filepath.Join(f.dir, fenceFileName), buf)
	if err != nil {
		return fmt.Errorf("blockstore: compact: %w", err)
	}
	// The superseded journal handle holds nothing durable — the compacted
	// file is already durable in its place.
	_ = f.fence.Close()
	f.fence, f.walSize = fence, int64(len(buf))
	return nil
}

func fenceRecord(target msg.NodeID, on bool) []byte {
	rec := make([]byte, fenceRecLen)
	binary.LittleEndian.PutUint32(rec[0:], uint32(int32(target)))
	if on {
		binary.LittleEndian.PutUint32(rec[4:], 1)
	}
	binary.LittleEndian.PutUint32(rec[8:], crc32.Checksum(rec[:8], castagnoli))
	return rec
}

// sync fsyncs one of the store's files through its Syncer.
func (f *File) sync(file *os.File) error { return f.syncer.fsync(file, false) }

// judge is the part of a read that needs no I/O: a block beyond capacity
// or torn is refused, a never-written one (ok false) is zeros, and only
// what is left has bytes on the media to fetch and verify.
func (f *File) judge(block uint64) (st blockState, ok bool, err error) {
	if block >= f.capacity {
		return st, false, fmt.Errorf("blockstore: block %d beyond capacity %d", block, f.capacity)
	}
	st, ok = f.index[block]
	if ok && st.torn {
		return st, true, fmt.Errorf("block %d: %w", block, ErrTorn)
	}
	return st, ok, nil
}

// verify re-checks a fetched block against its trailer's checksum, so
// corruption is detected at the moment it would otherwise be served.
func (f *File) verify(block uint64, st blockState, buf []byte) error {
	if crc32.Checksum(buf, castagnoli) == st.crc {
		return nil
	}
	// Detected at serve time rather than open (e.g. media decayed under a
	// running node): fail-stop this block, but leave the open-time
	// recovery report describing only what Open found.
	f.index[block] = blockState{torn: true}
	return fmt.Errorf("block %d: %w", block, ErrTorn)
}

// Read serves one block: judge, fetch, verify.
func (f *File) Read(block uint64) (data []byte, ver uint64, ok bool, err error) {
	st, ok, err := f.judge(block)
	if err != nil || !ok {
		return nil, 0, ok, err
	}
	buf := make([]byte, BlockSize)
	if err := f.fetch(block, st, buf); err != nil {
		return nil, 0, true, err
	}
	return buf, st.ver, true, nil
}

// ReadInto is Read into the caller's buffer of BlockSize bytes, which it
// fills when it serves the block (ok, no error) and otherwise leaves
// undefined. The disk serves a scalar DiskRead with it, into a pooled
// buffer the reply lends to the fabric.
func (f *File) ReadInto(block uint64, dst []byte) (ver uint64, ok bool, err error) {
	st, ok, err := f.judge(block)
	if err != nil || !ok {
		return 0, ok, err
	}
	if err := f.fetch(block, st, dst); err != nil {
		return 0, true, err
	}
	return st.ver, true, nil
}

// fetch reads a judged block's bytes into buf and verifies them.
func (f *File) fetch(block uint64, st blockState, buf []byte) error {
	if _, err := f.data.ReadAt(buf, DataOffset(block)); err != nil {
		return fmt.Errorf("blockstore: read block %d: %w", block, err)
	}
	return f.verify(block, st, buf)
}

// ReadV serves a batch into the caller's buffer. A run is a maximal
// stretch of the request whose block numbers are adjacent and which judge
// says have bytes to fetch; it costs one pread, straight into its slots of
// dst, after which each block is verified on its own. Everything else —
// refused, never written — is answered in place and ends the run, and a
// pread that stops short fails the block it stopped in and starts over
// behind it, so the outcome per block is Read's.
func (f *File) ReadV(blocks []uint64, dst []byte, vers []uint64) (errs []error) {
	zero := func(i int) {
		clear(dst[i*BlockSize : (i+1)*BlockSize])
		vers[i] = 0
	}
	fail := func(i int, err error) {
		if errs == nil {
			errs = make([]error, len(blocks))
		}
		errs[i] = err
		zero(i)
	}
	for i := 0; i < len(blocks); {
		if _, ok, err := f.judge(blocks[i]); err != nil {
			fail(i, err)
			i++
			continue
		} else if !ok {
			zero(i)
			i++
			continue
		}
		j := i + 1
		for j < len(blocks) && blocks[j] == blocks[j-1]+1 {
			if _, ok, err := f.judge(blocks[j]); err != nil || !ok {
				break
			}
			j++
		}
		n, short := f.data.ReadAt(dst[i*BlockSize:j*BlockSize], DataOffset(blocks[i]))
		end := j
		if short != nil {
			end = i + n/BlockSize // the block the pread stopped in
		}
		for k := i; k < end; k++ {
			st := f.index[blocks[k]]
			if err := f.verify(blocks[k], st, dst[k*BlockSize:(k+1)*BlockSize]); err != nil {
				fail(k, err)
				continue
			}
			vers[k] = st.ver
		}
		if short != nil {
			fail(end, fmt.Errorf("blockstore: read block %d: %w", blocks[end], short))
			end++
		}
		countRun(f.readRuns, f.readRunBlocks, end-i)
		i = end
	}
	return errs
}

func countRun(runs, blocks *stats.Counter, n int) {
	if runs != nil {
		runs.Inc()
		blocks.Add(uint64(n))
	}
}

// writable is the part of a write that needs no I/O.
func (f *File) writable(w BlockWrite) error {
	if w.Block >= f.capacity {
		return fmt.Errorf("blockstore: block %d beyond capacity %d", w.Block, f.capacity)
	}
	if len(w.Data) > BlockSize {
		return fmt.Errorf("blockstore: write of %d bytes exceeds block size", len(w.Data))
	}
	return nil
}

// spanning returns the one slice that holds a run's data when its entries
// are full blocks lying end to end in memory — a DiskWriteV payload cut
// into blocks does — so that the run is written from where it lies; nil
// otherwise.
func spanning(run []BlockWrite) []byte {
	first := run[0].Data
	if len(first) != BlockSize || cap(first) < len(run)*BlockSize {
		return nil
	}
	span := first[:len(run)*BlockSize]
	for i, w := range run[1:] {
		if len(w.Data) != BlockSize || &w.Data[0] != &span[(i+1)*BlockSize] {
			return nil
		}
	}
	return span
}

// stageRun pwrites a run — writable entries with adjacent block numbers —
// WITHOUT stabilizing it: the data in one pwrite, then the trailers, which
// lie as adjacent in the meta file as the blocks do in the data file, in a
// second. A crash between the two leaves trailers that do not match their
// blocks, which recovery reports torn block by block. The caller must
// fsync data and meta (commit) before updating the index or acknowledging
// anything. crcs[i] receives entry i's data checksum.
func (f *File) stageRun(run []BlockWrite, crcs []uint32) error {
	// Full blocks lying end to end are checksummed and written from the
	// caller's memory, which is only read; anything else is gathered,
	// zero-padded, in a pooled buffer.
	data := spanning(run)
	if data == nil {
		data = bufpool.Get(len(run) * BlockSize)
		defer bufpool.Put(data)
		for i, w := range run {
			slot := data[i*BlockSize : (i+1)*BlockSize]
			clear(slot[copy(slot, w.Data):])
		}
	}
	if cap(f.trailers) < len(run)*trailerSize {
		f.trailers = make([]byte, len(run)*trailerSize)
	}
	recs := f.trailers[:len(run)*trailerSize]
	for i, w := range run {
		crcs[i] = crc32.Checksum(data[i*BlockSize:(i+1)*BlockSize], castagnoli)
		rec := recs[i*trailerSize : (i+1)*trailerSize]
		binary.LittleEndian.PutUint64(rec[0:], w.Ver)
		binary.LittleEndian.PutUint32(rec[8:], crcs[i])
		binary.LittleEndian.PutUint32(rec[12:], flagWritten)
		binary.LittleEndian.PutUint32(rec[16:], crc32.Checksum(rec[:16], castagnoli))
	}
	first := run[0].Block
	if _, err := f.data.WriteAt(data, DataOffset(first)); err != nil {
		return fmt.Errorf("blockstore: write block %d+%d: %w", first, len(run), err)
	}
	if _, err := f.meta.WriteAt(recs, superSize+int64(first)*trailerSize); err != nil {
		return fmt.Errorf("blockstore: trailer %d+%d: %w", first, len(run), err)
	}
	countRun(f.writeRuns, f.writeRunBlocks, len(run))
	return nil
}

// commit stabilizes everything staged so far: one data fsync, one meta
// fsync — the group-commit point shared by a whole batch.
func (f *File) commit() error {
	if err := f.sync(f.data); err != nil {
		return err
	}
	return f.sync(f.meta)
}

// Write stores one block durably: data first, trailer second, fsync both
// before returning, so the caller's acknowledgment implies durability and
// a crash between the two pwrites is detectable (trailer CRC mismatch).
func (f *File) Write(block uint64, data []byte, ver uint64) error {
	run := [1]BlockWrite{{Block: block, Data: data, Ver: ver}}
	if err := f.writable(run[0]); err != nil {
		return err
	}
	var crc [1]uint32
	if err := f.stageRun(run[:], crc[:]); err != nil {
		return err
	}
	if err := f.commit(); err != nil {
		return err
	}
	f.index[block] = blockState{ver: ver, crc: crc[0]}
	return nil
}

// WriteV stores a batch of blocks under ONE group commit: every run of
// adjacent block numbers is staged (a data pwrite + a trailer pwrite),
// then a single data fsync and a single meta fsync stabilize the whole
// batch — 2 fsyncs instead of 2·n. Entries that cannot be written are
// refused individually, a failed pwrite fails its run, and neither stops
// the rest of the batch; a commit failure fails every staged entry, since
// none of them can be claimed durable. The index is only updated after
// the commit, so a crash mid-batch leaves either torn blocks (detected at
// recovery) or old contents — never a half-acknowledged batch.
func (f *File) WriteV(batch []BlockWrite) []error {
	errs := make([]error, len(batch))
	crcs := make([]uint32, len(batch))
	staged := 0
	for i := 0; i < len(batch); {
		if errs[i] = f.writable(batch[i]); errs[i] != nil {
			i++
			continue
		}
		j := i + 1
		for j < len(batch) && batch[j].Block == batch[j-1].Block+1 && f.writable(batch[j]) == nil {
			j++
		}
		if err := f.stageRun(batch[i:j], crcs[i:j]); err != nil {
			for k := i; k < j; k++ {
				errs[k] = err
			}
		} else {
			staged += j - i
		}
		i = j
	}
	if staged == 0 {
		return errs
	}
	if err := f.commit(); err != nil {
		for i := range errs {
			if errs[i] == nil {
				errs[i] = err
			}
		}
		return errs
	}
	if f.fsyncsSaved != nil && !f.syncer.noSync && staged > 1 {
		// A per-block loop would have paid 2 fsyncs per entry; the group
		// commit paid 2 total.
		f.fsyncsSaved.Add(uint64(2*staged - 2))
	}
	for i, w := range batch {
		if errs[i] == nil {
			f.index[w.Block] = blockState{ver: w.Ver, crc: crcs[i]}
		}
	}
	return errs
}

// SetFence appends one journal record and fsyncs it before returning:
// the FenceRes the disk then sends is backed by stable storage.
func (f *File) SetFence(target msg.NodeID, on bool) error {
	rec := fenceRecord(target, on)
	if _, err := f.fence.WriteAt(rec, f.walSize); err != nil {
		return fmt.Errorf("blockstore: fence journal: %w", err)
	}
	if err := f.sync(f.fence); err != nil {
		return err
	}
	f.walSize += fenceRecLen
	if f.journalRec != nil {
		f.journalRec.Inc()
	}
	if on {
		f.fenced[target] = true
	} else {
		delete(f.fenced, target)
	}
	return nil
}

// Fenced reports whether target is fenced.
func (f *File) Fenced(target msg.NodeID) bool { return f.fenced[target] }

// Recovery reports the open-time recovery pass.
func (f *File) Recovery() RecoveryReport { return f.recovery }

// Capacity returns the store's size in blocks (from the superblock).
func (f *File) Capacity() uint64 { return f.capacity }

// Close closes the backing files.
func (f *File) Close() error {
	var first error
	for _, file := range []*os.File{f.data, f.meta, f.fence} {
		if file == nil {
			continue
		}
		if err := file.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

var _ Media = (*File)(nil)
