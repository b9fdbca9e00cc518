package msg

// The registry: which types travel, and under which wire identifier.
// A type's rows here and its layout method are its whole description to
// the wire format — decode's constructor and AllMessages/AllResults
// derive from the two tables, encode's type byte from the two switches
// that read them the other way.

// Wire type identifiers. The list is append-only: reusing or renumbering
// an identifier breaks mixed-version interoperability.
const (
	btInvalid uint8 = iota
	btRejoin
	btKeepAlive
	btLookup
	btCreate
	btUnlink
	btRename
	btTruncate
	btOpen
	btClose
	btGetAttr
	btSetAttr
	btReaddir
	btGetBlocks
	btAllocBlocks
	btLockAcquire
	btLockRelease
	btLockDowngraded
	btReassert
	btHeartbeat
	btRenewObjects
	btFuncRead
	btFuncWrite
	btReply
	btDemand
	btDemandAck
	btDiskRead
	btDiskReadRes
	btDiskWrite
	btDiskWriteRes
	btDiskWriteV
	btDiskWriteVRes
	btDiskReadV
	btDiskReadVRes
	btFenceSet
	btFenceRes
	btDLockAcquire
	btDLockRelease
	btDLockRes
	btShardMigrate
	btShardMigrateRes
	btReplicaPrepare
	btReplicaPromise
	btReplicaPropose
	btReplicaAccept
	btReplicaInfo
)

// Nested result identifiers for Reply bodies. brNil means Body == nil.
const (
	brNil uint8 = iota
	brLookupRes
	brCreateRes
	brOpenRes
	brAttrRes
	brReaddirRes
	brBlocksRes
	brAllocRes
	brLockRes
	brRejoinRes
	brReassertRes
	brFuncReadRes
	brReplicaInfoRes
)

// wireMessage is a Message with a wire layout: a walk over its fields in
// wire order (see coder).
type wireMessage interface {
	Message
	layout(*coder)
}

// messageTypes constructs the message behind each identifier.
var messageTypes = [...]func() wireMessage{
	btRejoin:          func() wireMessage { return new(Rejoin) },
	btKeepAlive:       func() wireMessage { return new(KeepAlive) },
	btLookup:          func() wireMessage { return new(Lookup) },
	btCreate:          func() wireMessage { return new(Create) },
	btUnlink:          func() wireMessage { return new(Unlink) },
	btRename:          func() wireMessage { return new(Rename) },
	btTruncate:        func() wireMessage { return new(Truncate) },
	btOpen:            func() wireMessage { return new(Open) },
	btClose:           func() wireMessage { return new(Close) },
	btGetAttr:         func() wireMessage { return new(GetAttr) },
	btSetAttr:         func() wireMessage { return new(SetAttr) },
	btReaddir:         func() wireMessage { return new(Readdir) },
	btGetBlocks:       func() wireMessage { return new(GetBlocks) },
	btAllocBlocks:     func() wireMessage { return new(AllocBlocks) },
	btLockAcquire:     func() wireMessage { return new(LockAcquire) },
	btLockRelease:     func() wireMessage { return new(LockRelease) },
	btLockDowngraded:  func() wireMessage { return new(LockDowngraded) },
	btReassert:        func() wireMessage { return new(Reassert) },
	btHeartbeat:       func() wireMessage { return new(Heartbeat) },
	btRenewObjects:    func() wireMessage { return new(RenewObjects) },
	btFuncRead:        func() wireMessage { return new(FuncRead) },
	btFuncWrite:       func() wireMessage { return new(FuncWrite) },
	btReply:           func() wireMessage { return new(Reply) },
	btDemand:          func() wireMessage { return new(Demand) },
	btDemandAck:       func() wireMessage { return new(DemandAck) },
	btDiskRead:        func() wireMessage { return new(DiskRead) },
	btDiskReadRes:     func() wireMessage { return new(DiskReadRes) },
	btDiskWrite:       func() wireMessage { return new(DiskWrite) },
	btDiskWriteRes:    func() wireMessage { return new(DiskWriteRes) },
	btDiskWriteV:      func() wireMessage { return new(DiskWriteV) },
	btDiskWriteVRes:   func() wireMessage { return new(DiskWriteVRes) },
	btDiskReadV:       func() wireMessage { return new(DiskReadV) },
	btDiskReadVRes:    func() wireMessage { return new(DiskReadVRes) },
	btFenceSet:        func() wireMessage { return new(FenceSet) },
	btFenceRes:        func() wireMessage { return new(FenceRes) },
	btDLockAcquire:    func() wireMessage { return new(DLockAcquire) },
	btDLockRelease:    func() wireMessage { return new(DLockRelease) },
	btDLockRes:        func() wireMessage { return new(DLockRes) },
	btShardMigrate:    func() wireMessage { return new(ShardMigrate) },
	btShardMigrateRes: func() wireMessage { return new(ShardMigrateRes) },
	btReplicaPrepare:  func() wireMessage { return new(ReplicaPrepare) },
	btReplicaPromise:  func() wireMessage { return new(ReplicaPromise) },
	btReplicaPropose:  func() wireMessage { return new(ReplicaPropose) },
	btReplicaAccept:   func() wireMessage { return new(ReplicaAccept) },
	btReplicaInfo:     func() wireMessage { return new(ReplicaInfo) },
}

// resultTypes holds the zero result behind each identifier; decoding
// runs its layout, whose value receiver is a fresh copy.
var resultTypes = [...]Result{
	brLookupRes:      LookupRes{},
	brCreateRes:      CreateRes{},
	brOpenRes:        OpenRes{},
	brAttrRes:        AttrRes{},
	brReaddirRes:     ReaddirRes{},
	brBlocksRes:      BlocksRes{},
	brAllocRes:       AllocRes{},
	brLockRes:        LockRes{},
	brRejoinRes:      RejoinRes{},
	brReassertRes:    ReassertRes{},
	brFuncReadRes:    FuncReadRes{},
	brReplicaInfoRes: ReplicaInfoRes{},
}

// messageID and resultID are the tables read the other way, for
// encoding: a message's or result's dynamic type to its identifier (0
// for a type the registry does not know). They are type switches rather
// than a map built from the tables because every send runs them twice,
// size then encode, and a switch is a few compares where a
// reflect.Type-keyed map is a hash; TestRegistryMatchesLayouts holds
// them to the tables.
func messageID(m Message) uint8 {
	switch m.(type) {
	case *Rejoin:
		return btRejoin
	case *KeepAlive:
		return btKeepAlive
	case *Lookup:
		return btLookup
	case *Create:
		return btCreate
	case *Unlink:
		return btUnlink
	case *Rename:
		return btRename
	case *Truncate:
		return btTruncate
	case *Open:
		return btOpen
	case *Close:
		return btClose
	case *GetAttr:
		return btGetAttr
	case *SetAttr:
		return btSetAttr
	case *Readdir:
		return btReaddir
	case *GetBlocks:
		return btGetBlocks
	case *AllocBlocks:
		return btAllocBlocks
	case *LockAcquire:
		return btLockAcquire
	case *LockRelease:
		return btLockRelease
	case *LockDowngraded:
		return btLockDowngraded
	case *Reassert:
		return btReassert
	case *Heartbeat:
		return btHeartbeat
	case *RenewObjects:
		return btRenewObjects
	case *FuncRead:
		return btFuncRead
	case *FuncWrite:
		return btFuncWrite
	case *Reply:
		return btReply
	case *Demand:
		return btDemand
	case *DemandAck:
		return btDemandAck
	case *DiskRead:
		return btDiskRead
	case *DiskReadRes:
		return btDiskReadRes
	case *DiskWrite:
		return btDiskWrite
	case *DiskWriteRes:
		return btDiskWriteRes
	case *DiskWriteV:
		return btDiskWriteV
	case *DiskWriteVRes:
		return btDiskWriteVRes
	case *DiskReadV:
		return btDiskReadV
	case *DiskReadVRes:
		return btDiskReadVRes
	case *FenceSet:
		return btFenceSet
	case *FenceRes:
		return btFenceRes
	case *DLockAcquire:
		return btDLockAcquire
	case *DLockRelease:
		return btDLockRelease
	case *DLockRes:
		return btDLockRes
	case *ShardMigrate:
		return btShardMigrate
	case *ShardMigrateRes:
		return btShardMigrateRes
	case *ReplicaPrepare:
		return btReplicaPrepare
	case *ReplicaPromise:
		return btReplicaPromise
	case *ReplicaPropose:
		return btReplicaPropose
	case *ReplicaAccept:
		return btReplicaAccept
	case *ReplicaInfo:
		return btReplicaInfo
	}
	return btInvalid
}

func resultID(r Result) uint8 {
	switch r.(type) {
	case LookupRes:
		return brLookupRes
	case CreateRes:
		return brCreateRes
	case OpenRes:
		return brOpenRes
	case AttrRes:
		return brAttrRes
	case ReaddirRes:
		return brReaddirRes
	case BlocksRes:
		return brBlocksRes
	case AllocRes:
		return brAllocRes
	case LockRes:
		return brLockRes
	case RejoinRes:
		return brRejoinRes
	case ReassertRes:
		return brReassertRes
	case FuncReadRes:
		return brFuncReadRes
	case ReplicaInfoRes:
		return brReplicaInfoRes
	}
	return brNil
}

// AllMessages returns one zero-valued instance of every concrete message
// type that can travel in an Envelope, in identifier order. The msg test
// suite round-trips every entry and pins its frame (frames.golden).
func AllMessages() []Message {
	var all []Message
	for _, mk := range messageTypes {
		if mk != nil {
			all = append(all, mk())
		}
	}
	return all
}

// AllResults returns one zero-valued instance of every concrete Result
// type a Reply body can carry.
func AllResults() []Result {
	var all []Result
	for _, r := range resultTypes {
		if r != nil {
			all = append(all, r)
		}
	}
	return all
}
