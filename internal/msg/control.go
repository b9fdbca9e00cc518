package msg

// LockMode is the strength of a data lock on a file object. Data locks
// protect cached data: a shared lock permits read caching, an exclusive
// lock permits write-back caching.
type LockMode uint8

const (
	LockNone LockMode = iota
	LockShared
	LockExclusive
)

func (m LockMode) String() string {
	switch m {
	case LockNone:
		return "none"
	case LockShared:
		return "shared"
	case LockExclusive:
		return "exclusive"
	}
	return "invalid"
}

// Compatible reports whether two data locks may be held concurrently by
// different clients.
func (m LockMode) Compatible(o LockMode) bool {
	return m != LockExclusive && o != LockExclusive || m == LockNone || o == LockNone
}

// Covers reports whether holding m suffices for an operation needing o.
func (m LockMode) Covers(o LockMode) bool { return m >= o }

// Attr is an object's metadata as served over the control network.
// Version is a server-side modification counter standing in for mtime
// (the system never relies on absolute time).
type Attr struct {
	Ino     ObjectID
	IsDir   bool
	Size    uint64
	Version uint64
	Nlink   uint32
}

// BlockRef addresses one block of file data on the SAN.
type BlockRef struct {
	Disk NodeID
	Num  uint64
}

// DirEntry is one name in a directory listing.
type DirEntry struct {
	Name  string
	Ino   ObjectID
	IsDir bool
}

// ReqHeader is common to all client-initiated control requests. Req is the
// at-most-once identifier; Epoch is the client's current registration.
type ReqHeader struct {
	Client NodeID
	Req    ReqID
	Epoch  Epoch
}

// Request is a client-initiated control-network message. The server
// answers every Request with a Reply carrying the same ReqID, either ACK
// (executed; renews the sender's lease) or NACK (client is suspect/stale).
type Request interface {
	Message
	Hdr() *ReqHeader
}

func (h *ReqHeader) Hdr() *ReqHeader { return h }

// --- Requests -------------------------------------------------------------

// Rejoin (re)registers a client with the server. It is the only request a
// suspect or expired client may make; a successful Rejoin returns a fresh
// epoch and implies the client holds no locks and caches nothing.
type Rejoin struct{ ReqHeader }

func (*Rejoin) Kind() Kind { return KindControlReq }

func (m *Rejoin) layout(c *coder) { c.hdr(&m.ReqHeader) }

// KeepAlive is the paper's special-purpose NULL message (§3.1): it encodes
// no file-system or lock operation and exists solely to elicit an ACK that
// renews the lease. Sent only in phase 2, or by idle clients that still
// cache data.
type KeepAlive struct{ ReqHeader }

func (*KeepAlive) Kind() Kind { return KindKeepAlive }

func (m *KeepAlive) layout(c *coder) { c.hdr(&m.ReqHeader) }

// Lookup resolves a path to an object.
type Lookup struct {
	ReqHeader
	Path string
}

func (*Lookup) Kind() Kind { return KindControlReq }

func (m *Lookup) layout(c *coder) { c.hdr(&m.ReqHeader); c.str(&m.Path) }

// Create makes a new file or directory at Path.
type Create struct {
	ReqHeader
	Path  string
	IsDir bool
}

func (*Create) Kind() Kind { return KindControlReq }

func (m *Create) layout(c *coder) { c.hdr(&m.ReqHeader); c.str(&m.Path); c.b1(&m.IsDir) }

// Unlink removes the object at Path (directories must be empty).
type Unlink struct {
	ReqHeader
	Path string
}

func (*Unlink) Kind() Kind { return KindControlReq }

func (m *Unlink) layout(c *coder) { c.hdr(&m.ReqHeader); c.str(&m.Path) }

// Rename moves an object; the destination must not exist.
type Rename struct {
	ReqHeader
	OldPath, NewPath string
}

func (*Rename) Kind() Kind { return KindControlReq }

func (m *Rename) layout(c *coder) { c.hdr(&m.ReqHeader); c.str(&m.OldPath); c.str(&m.NewPath) }

// Truncate shrinks a file to Blocks data blocks, freeing the tail at the
// server's allocator.
type Truncate struct {
	ReqHeader
	Ino    ObjectID
	Blocks uint32
}

func (*Truncate) Kind() Kind { return KindControlReq }

func (m *Truncate) layout(c *coder) { c.hdr(&m.ReqHeader); c.ino(&m.Ino); c.u32(&m.Blocks) }

// Open creates an open instance for an object; Write requests write access.
type Open struct {
	ReqHeader
	Ino   ObjectID
	Write bool
}

func (*Open) Kind() Kind { return KindControlReq }

func (m *Open) layout(c *coder) { c.hdr(&m.ReqHeader); c.ino(&m.Ino); c.b1(&m.Write) }

// Close releases an open instance.
type Close struct {
	ReqHeader
	Ino    ObjectID
	Handle Handle
}

func (*Close) Kind() Kind { return KindControlReq }

func (m *Close) layout(c *coder) { c.hdr(&m.ReqHeader); c.ino(&m.Ino); c.u64((*uint64)(&m.Handle)) }

// GetAttr fetches current metadata for an object.
type GetAttr struct {
	ReqHeader
	Ino ObjectID
}

func (*GetAttr) Kind() Kind { return KindControlReq }

func (m *GetAttr) layout(c *coder) { c.hdr(&m.ReqHeader); c.ino(&m.Ino) }

// SetAttr updates file size (truncate/extend bookkeeping after writes).
type SetAttr struct {
	ReqHeader
	Ino     ObjectID
	NewSize uint64
}

func (*SetAttr) Kind() Kind { return KindControlReq }

func (m *SetAttr) layout(c *coder) { c.hdr(&m.ReqHeader); c.ino(&m.Ino); c.u64(&m.NewSize) }

// Readdir lists a directory.
type Readdir struct {
	ReqHeader
	Ino ObjectID
}

func (*Readdir) Kind() Kind { return KindControlReq }

func (m *Readdir) layout(c *coder) { c.hdr(&m.ReqHeader); c.ino(&m.Ino) }

// GetBlocks fetches an object's block map so the client can perform direct
// SAN I/O.
type GetBlocks struct {
	ReqHeader
	Ino ObjectID
}

func (*GetBlocks) Kind() Kind { return KindControlReq }

func (m *GetBlocks) layout(c *coder) { c.hdr(&m.ReqHeader); c.ino(&m.Ino) }

// AllocBlocks extends an object by at least Count new blocks: the server
// may grant a longer run, ahead of the writer (meta.Store.GrantBlocks).
type AllocBlocks struct {
	ReqHeader
	Ino   ObjectID
	Count uint32
}

func (*AllocBlocks) Kind() Kind { return KindControlReq }

func (m *AllocBlocks) layout(c *coder) { c.hdr(&m.ReqHeader); c.ino(&m.Ino); c.u32(&m.Count) }

// LockAcquire asks for a data lock of the given mode. The server replies
// when the lock is granted (demanding it from conflicting holders first if
// necessary); the reliable-request layer keeps retrying meanwhile. WantMap
// says the client caches no block map for the object: the grant then
// carries it (LockRes), as the server has it the moment the lock moves.
type LockAcquire struct {
	ReqHeader
	Ino     ObjectID
	Mode    LockMode
	WantMap bool
}

func (*LockAcquire) Kind() Kind { return KindControlReq }

func (m *LockAcquire) layout(c *coder) {
	c.hdr(&m.ReqHeader)
	c.ino(&m.Ino)
	c.lock(&m.Mode)
	c.b1(&m.WantMap)
}

// LockRelease gives a data lock back (or downgrades it to Mode).
type LockRelease struct {
	ReqHeader
	Ino ObjectID
	// To is the mode retained after release; LockNone releases entirely.
	To LockMode
}

func (*LockRelease) Kind() Kind { return KindControlReq }

func (m *LockRelease) layout(c *coder) { c.hdr(&m.ReqHeader); c.ino(&m.Ino); c.lock(&m.To) }

// LockDowngraded tells the server a demanded downgrade is complete: dirty
// data covered by the lock has been flushed and the cache adjusted.
type LockDowngraded struct {
	ReqHeader
	Ino    ObjectID
	To     LockMode
	Demand DemandID
}

func (*LockDowngraded) Kind() Kind { return KindControlReq }

func (m *LockDowngraded) layout(c *coder) {
	c.hdr(&m.ReqHeader)
	c.ino(&m.Ino)
	c.lock(&m.To)
	c.u64((*uint64)(&m.Demand))
}

// LockClaim is one lock a client re-asserts after a server restart.
type LockClaim struct {
	Ino  ObjectID
	Mode LockMode
}

// Reassert restores a client's registration and lock state at a freshly
// restarted server (§6: "client-driven lock reassertion"). It is only
// accepted during the server's post-restart grace period, and only if
// the claimed locks are compatible with other reasserted claims. A
// client may reassert only while its own lease is still running — its
// locks are contractually protected for that long, even across a server
// restart.
type Reassert struct {
	ReqHeader
	Locks []LockClaim
}

func (*Reassert) Kind() Kind { return KindControlReq }

func (m *Reassert) layout(c *coder) {
	c.hdr(&m.ReqHeader)
	for i := range vec(c, &m.Locks, 9) {
		c.ino(&m.Locks[i].Ino)
		c.lock(&m.Locks[i].Mode)
	}
}

// Heartbeat is baseline traffic for the Frangipani-style lease policy: a
// periodic I-am-alive that the server must record per client.
type Heartbeat struct{ ReqHeader }

func (*Heartbeat) Kind() Kind { return KindLeaseAdmin }

func (m *Heartbeat) layout(c *coder) { c.hdr(&m.ReqHeader) }

// RenewObjects is baseline traffic for the V-style per-object lease
// policy: the client enumerates every cached object whose lease it renews.
type RenewObjects struct {
	ReqHeader
	Inos []ObjectID
}

func (*RenewObjects) Kind() Kind { return KindLeaseAdmin }

func (m *RenewObjects) layout(c *coder) {
	c.hdr(&m.ReqHeader)
	for i := range vec(c, &m.Inos, 8) {
		c.ino(&m.Inos[i])
	}
}

// FuncRead is baseline traffic for the function-shipping data path
// (traditional client/server file system): the server performs the disk
// read and returns the data over the control network.
type FuncRead struct {
	ReqHeader
	Ino    ObjectID
	Offset uint64
	Length uint32
}

func (*FuncRead) Kind() Kind { return KindControlReq }

func (m *FuncRead) layout(c *coder) {
	c.hdr(&m.ReqHeader)
	c.ino(&m.Ino)
	c.u64(&m.Offset)
	c.u32(&m.Length)
}

// FuncWrite ships data to the server, which performs the disk write.
type FuncWrite struct {
	ReqHeader
	Ino    ObjectID
	Offset uint64
	Data   []byte
}

func (*FuncWrite) Kind() Kind { return KindControlReq }

func (m *FuncWrite) layout(c *coder) {
	c.hdr(&m.ReqHeader)
	c.ino(&m.Ino)
	c.u64(&m.Offset)
	c.tailCopy(&m.Data)
}

// --- Replies ---------------------------------------------------------------

// Result is the typed payload of a successful Reply. It is sealed by its
// wire layout: only a type this package lays out can be a Reply body.
// Results are values, so a layout has a value receiver and ends in keep.
type Result interface{ layout(*coder) }

// Reply answers a Request. Status NACK means the server refuses to serve
// this client (suspect, expired, or stale epoch); Err reports file-system
// outcomes within an ACK.
type Reply struct {
	Client NodeID
	Req    ReqID
	Status Status
	Err    Errno
	Body   Result
}

func (*Reply) Kind() Kind { return KindControlReply }

func (m *Reply) layout(c *coder) {
	c.node(&m.Client)
	c.req(&m.Req)
	c.u8((*uint8)(&m.Status))
	c.errno(&m.Err)
	c.result(&m.Body)
}

// Directory grants (DESIGN.md §18). A reply to a namespace request says
// which directory locks the client holds, shared, as the reply leaves:
// what the answer depended on is covered by them, so the client may
// answer the same question again without asking. A grant rides on the
// reply and is try-only — a directory whose lock would have had to be
// demanded from somebody is reported as 0, and that part of the answer
// is simply not cacheable.

// LookupRes answers a path walk. It is the body of a Lookup reply — with
// ErrNoEnt as well as OK — and of the replies to Unlink (Attr is the
// object removed) and Rename (Attr is the object moved).
//
// Dirs[i] is the directory component i of the path was looked up in
// (Dirs[0] is the root), one entry per component the walk reached, or 0
// where the client does not hold that directory's lock. On ErrNoEnt the
// last entry is the directory the name is missing from. When a Lookup
// finds a directory, one more entry follows for the directory itself,
// whose own lock covers its Attr. A Rename reply carries OldPath's chain
// and then NewPath's.
type LookupRes struct {
	Attr Attr
	Dirs []ObjectID
}

func (r LookupRes) layout(c *coder) { c.attr(&r.Attr); c.inos(&r.Dirs); keep(c, r) }

// CreateRes returns the new object's metadata and the chain of its path,
// as LookupRes does: the last entry is the directory the name went into,
// which the creator always holds.
type CreateRes struct {
	Attr Attr
	Dirs []ObjectID
}

func (r CreateRes) layout(c *coder) { c.attr(&r.Attr); c.inos(&r.Dirs); keep(c, r) }

// OpenRes returns the open handle and current metadata.
type OpenRes struct {
	Handle Handle
	Attr   Attr
}

func (r OpenRes) layout(c *coder) { c.u64((*uint64)(&r.Handle)); c.attr(&r.Attr); keep(c, r) }

// AttrRes returns metadata. Dir is the directory whose lock covers it —
// a file's parent, a directory itself — when the client holds that lock,
// and 0 when it does not.
type AttrRes struct {
	Attr Attr
	Dir  ObjectID
}

func (r AttrRes) layout(c *coder) { c.attr(&r.Attr); c.ino(&r.Dir); keep(c, r) }

// ReaddirRes returns directory entries. Granted says the client holds the
// listed directory's lock: the listing is then complete for as long as it
// does.
type ReaddirRes struct {
	Entries []DirEntry
	Granted bool
}

func (r ReaddirRes) layout(c *coder) {
	for i := range vec(c, &r.Entries, 9) {
		c.str(&r.Entries[i].Name)
		c.ino(&r.Entries[i].Ino)
		c.b1(&r.Entries[i].IsDir)
	}
	c.b1(&r.Granted)
	keep(c, r)
}

// BlocksRes returns an object's block map and current metadata.
type BlocksRes struct {
	Attr Attr
	Map  Extents
}

func (r BlocksRes) layout(c *coder) { c.attr(&r.Attr); c.extents(&r.Map); keep(c, r) }

// AllocRes returns what an extension added: Map holds the new blocks
// only, and First is the index in the file of its first block — the
// length of the map the server extended. A client splices Map at First;
// its size does not depend on the file's length.
type AllocRes struct {
	Attr  Attr
	First uint32
	Map   Extents
}

func (r AllocRes) layout(c *coder) {
	c.attr(&r.Attr)
	c.u32(&r.First)
	c.extents(&r.Map)
	keep(c, r)
}

// LockRes confirms the mode now held. The grant of a LockAcquire that
// asked for it (WantMap) also carries the object's metadata and block map
// as they stand when the lock moves — what a GetBlocks right behind the
// grant would have fetched. HaveMap says so; without it Attr and Map are
// not on the wire at all, which is every reply to a LockRelease or a
// LockDowngraded.
type LockRes struct {
	Mode    LockMode
	HaveMap bool
	Attr    Attr
	Map     Extents
}

func (r LockRes) layout(c *coder) {
	c.lock(&r.Mode)
	c.b1(&r.HaveMap)
	if r.HaveMap {
		c.attr(&r.Attr)
		c.extents(&r.Map)
	}
	keep(c, r)
}

// RejoinRes returns the client's fresh epoch.
type RejoinRes struct{ Epoch Epoch }

func (r RejoinRes) layout(c *coder) { c.u32((*uint32)(&r.Epoch)); keep(c, r) }

// ReassertRes returns the fresh epoch after a successful reassertion.
type ReassertRes struct{ Epoch Epoch }

func (r ReassertRes) layout(c *coder) { c.u32((*uint32)(&r.Epoch)); keep(c, r) }

// FuncReadRes returns function-shipped data.
type FuncReadRes struct{ Data []byte }

func (r FuncReadRes) layout(c *coder) { c.tailCopy(&r.Data); keep(c, r) }

// --- Server-initiated ------------------------------------------------------

// Demand asks a lock holder to downgrade to Mode (§1.2: the server
// "demands" the lock). It requires an immediate transport-level DemandAck;
// absence of the ack after retries is the delivery failure that moves the
// server's lease authority against the client.
type Demand struct {
	ID   DemandID
	Ino  ObjectID
	Mode LockMode
	// Server identifies the demanding server so the client can ack.
	Server NodeID
}

func (*Demand) Kind() Kind { return KindDemand }

func (m *Demand) layout(c *coder) {
	c.u64((*uint64)(&m.ID))
	c.ino(&m.Ino)
	c.lock(&m.Mode)
	c.node(&m.Server)
}

// DemandAck is the client's immediate acknowledgment of a Demand. It does
// not mean the downgrade is complete — LockDowngraded reports that — only
// that the client is alive and has accepted the demand.
type DemandAck struct {
	Client NodeID
	ID     DemandID
}

func (*DemandAck) Kind() Kind { return KindDemandAck }

func (m *DemandAck) layout(c *coder) { c.node(&m.Client); c.u64((*uint64)(&m.ID)) }

// --- Server-to-server (shard handoff) ---------------------------------------

// ShardMigrate hands a file's metadata from one lease authority to
// another for a cross-shard rename: the source shard (Src) asks the
// destination to install the object at Path with the given attributes
// and block map. HID is a durable per-source handoff identifier; the
// destination installs at most once per (Src, HID), so the source may
// retransmit until answered. The blocks keep their original disk
// addresses — file data never moves during a handoff.
type ShardMigrate struct {
	Src  NodeID
	HID  uint64
	Path string
	Attr Attr
	Map  Extents
}

func (*ShardMigrate) Kind() Kind { return KindShard }

func (m *ShardMigrate) layout(c *coder) {
	c.node(&m.Src)
	c.u64(&m.HID)
	c.str(&m.Path)
	c.attr(&m.Attr)
	c.extents(&m.Map)
}

// ShardMigrateRes answers a ShardMigrate: OK means the object now exists
// at the destination shard (installed by this message or an earlier
// duplicate) and the source may unlink its copy; any other Errno aborts
// the handoff and the source keeps ownership.
type ShardMigrateRes struct {
	HID uint64
	Err Errno
}

func (*ShardMigrateRes) Kind() Kind { return KindShard }

func (m *ShardMigrateRes) layout(c *coder) { c.u64(&m.HID); c.errno(&m.Err) }
