// Package msg defines the identifiers and wire messages exchanged by
// Storage Tank participants: client↔server control-network traffic and
// client/server↔disk SAN traffic. The same types are passed by pointer on
// the simulated networks and framed by their wire layouts (binary.go) on
// the live TCP transport.
//
// Delivery semantics follow the paper (§3): the underlying networks are
// connection-less datagram fabrics; requests carry per-client request IDs
// so the reliable-request layer in internal/core can provide retries with
// at-most-once execution, and replies are either acknowledgments (ACK,
// possibly carrying a result) or negative acknowledgments (NACK).
package msg

import "fmt"

// NodeID identifies a participant: a client, a server, or a disk. IDs are
// unique across the whole installation regardless of role.
type NodeID int32

// None is the zero NodeID, never assigned to a node.
const None NodeID = 0

func (n NodeID) String() string { return fmt.Sprintf("n%d", int32(n)) }

// ObjectID names a file-system object (an inode number). Locking in
// Storage Tank is logical — it names objects, not disk address ranges.
type ObjectID uint64

func (o ObjectID) String() string { return fmt.Sprintf("ino%d", uint64(o)) }

// ReqID is a per-client monotonically increasing request identifier, the
// paper's "version numbers for at-most-once delivery semantics".
type ReqID uint64

// Epoch numbers a client's registration with a server. After a lease
// expires and the client's locks are stolen, the client must rejoin and is
// issued a new epoch; messages from older epochs are NACKed.
type Epoch uint32

// DemandID identifies a server-initiated lock demand (revocation request).
type DemandID uint64

// Handle identifies an open file instance at the server.
type Handle uint64

// Status is the transport-level outcome of a request.
type Status uint8

const (
	// ACK: the server executed (or had already executed) the request; a
	// client-initiated ACKed message renews the client's lease from its
	// send time tC1.
	ACK Status = iota + 1
	// NACK: the server refuses service because it considers the client
	// suspect or expired (it has started, or finished, a lease timeout for
	// it) or the request's epoch is stale. A NACK never renews a lease; on
	// receipt the client knows its cache is invalid and enters phase 3
	// directly (§3.3).
	NACK
)

func (s Status) String() string {
	switch s {
	case ACK:
		return "ACK"
	case NACK:
		return "NACK"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Errno is the file-system level result code carried inside an ACK. A NACK
// carries no Errno: it is not an answer to the request at all.
type Errno uint8

const (
	OK Errno = iota
	ErrNoEnt
	ErrExist
	ErrNotDir
	ErrIsDir
	ErrBadHandle
	ErrConflict  // lock conflict that the server will not queue (trylock)
	ErrStale     // stale epoch
	ErrNoSpace   // allocator exhausted
	ErrFenced    // disk refused I/O: initiator is fenced
	ErrRange     // block address out of range
	ErrNotHolder // lock operation by a non-holder
	ErrDLockHeld // GFS-baseline disk lock is held by another initiator
	ErrMedia     // disk media failure: the stable store could not serve/commit
	ErrTorn      // disk media detected a torn write (checksum mismatch)
	ErrNotActive // replica refused service: it does not hold the authority lease
)

var errnoNames = [...]string{
	OK:           "OK",
	ErrNoEnt:     "ErrNoEnt",
	ErrExist:     "ErrExist",
	ErrNotDir:    "ErrNotDir",
	ErrIsDir:     "ErrIsDir",
	ErrBadHandle: "ErrBadHandle",
	ErrConflict:  "ErrConflict",
	ErrStale:     "ErrStale",
	ErrNoSpace:   "ErrNoSpace",
	ErrFenced:    "ErrFenced",
	ErrRange:     "ErrRange",
	ErrNotHolder: "ErrNotHolder",
	ErrDLockHeld: "ErrDLockHeld",
	ErrMedia:     "ErrMedia",
	ErrTorn:      "ErrTorn",
	ErrNotActive: "ErrNotActive",
}

func (e Errno) String() string {
	if int(e) < len(errnoNames) {
		return errnoNames[e]
	}
	return fmt.Sprintf("Errno(%d)", uint8(e))
}

// Error makes Errno usable as an error. OK is still non-nil when wrapped;
// use Errno.Or to convert to a nil error.
func (e Errno) Error() string { return e.String() }

// Or returns nil when the Errno is OK, and the Errno otherwise.
func (e Errno) Or() error {
	if e == OK {
		return nil
	}
	return e
}

// Kind classifies messages for accounting. Every message type reports its
// Kind so the stats layer can attribute traffic to protocol functions —
// in particular, which messages exist solely for lease maintenance.
type Kind uint8

const (
	KindControlReq   Kind = iota + 1 // file-system/lock request, client→server
	KindControlReply                 // ACK/NACK reply, server→client
	KindKeepAlive                    // lease-only NULL message (§3.1)
	KindDemand                       // server-initiated lock demand
	KindDemandAck                    // client's immediate ack of a demand
	KindSANIO                        // data block read/write on the SAN
	KindSANReply                     // disk's reply
	KindFence                        // fence administration on the SAN
	KindLeaseAdmin                   // baseline lease traffic (heartbeats, per-object renewals)
	KindShard                        // server-to-server shard handoff traffic
	KindReplica                      // replica-to-replica authority-lease negotiation
)

var kindNames = [...]string{
	KindControlReq:   "control-req",
	KindControlReply: "control-reply",
	KindKeepAlive:    "keepalive",
	KindDemand:       "demand",
	KindDemandAck:    "demand-ack",
	KindSANIO:        "san-io",
	KindSANReply:     "san-reply",
	KindFence:        "fence",
	KindLeaseAdmin:   "lease-admin",
	KindShard:        "shard",
	KindReplica:      "replica",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Message is anything that can travel on a network. What it costs on
// the wire is not a property it reports: a type is described once, by
// its layout (binary.go), and the byte counters — the server's bytes_out,
// the simulated networks' net.*.bytes — count the frame body that layout
// writes, metadata and tail (Coder.Size), on either transport.
type Message interface {
	Kind() Kind
}

// Envelope is a message in flight. The unexported borrow field holds the
// pooled buffer the payload aliases, if any, whose count is the
// payload's own borrow cell (see Borrowed); it rides along when the
// envelope is copied by value and never reaches the wire.
type Envelope struct {
	From, To NodeID
	Payload  Message

	borrow *[]byte
}
