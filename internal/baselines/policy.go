// Package baselines names the comparison systems the reproduction runs
// against the paper's protocol (§1.2, §2.1, §4, §5): a Policy is one value
// per axis — the recovery, which fixes the lease, and the data path. The
// client's and the server's constructors turn it into seams, with the
// baselines' code beside the paper's (DESIGN §26). The zero Policy is the
// paper's protocol.
package baselines

import "fmt"

// LeasePolicy names the lease/liveness mechanism, which a RecoveryPolicy
// determines (Policy.Lease).
type LeasePolicy uint8

const (
	// LeaseStorageTank is the paper's protocol: a single lease per
	// client/server pair, renewed opportunistically by ordinary ACKed
	// messages, with a passive server.
	LeaseStorageTank LeasePolicy = iota
	// LeaseHeartbeat models Frangipani (§5): one lease per client, but
	// maintained by explicit periodic heartbeats, with the server storing
	// last-heard state for every client at all times.
	LeaseHeartbeat
	// LeasePerObject models the V system (§4): every cached object has
	// its own lease the client must renew; the server stores one lease
	// record per (client, object).
	LeasePerObject
	// LeaseNone has no lease machinery at all (honor-locks, naive-steal,
	// fencing-only, NFS-style configurations).
	LeaseNone
)

func (p LeasePolicy) String() string {
	return name(p, "LeasePolicy", "storage-tank", "heartbeat", "per-object", "no-lease")
}

// RecoveryPolicy selects what the server does when a client stops
// acknowledging demands.
type RecoveryPolicy uint8

const (
	// RecoverLeaseFence is the paper's protocol: NACK the client, wait
	// τ(1+ε), then steal locks and fence (fencing as the slow-computer
	// backstop, §6).
	RecoverLeaseFence RecoveryPolicy = iota
	// RecoverHonorLocks never steals: locked data stays unavailable until
	// the partition heals (§2's unavailability problem).
	RecoverHonorLocks
	// RecoverStealImmediate steals at once without fencing — safe for
	// server-marshaled I/O, catastrophic for network-attached storage
	// (§1.2).
	RecoverStealImmediate
	// RecoverFenceOnly fences the client at the disks and then steals
	// immediately — §2.1's strawman: no concurrent writers, but stranded
	// dirty data and undetected stale caches.
	RecoverFenceOnly
	// RecoverHeartbeatSteal waits until the client's heartbeat lease
	// lapses (last-heard older than τ on the server's clock), then steals
	// and fences. Its clients keep heartbeat leases.
	RecoverHeartbeatSteal
	// RecoverPerObjectExpire waits τ(1+ε) (the worst-case remaining
	// validity of any of the client's per-object leases), then steals.
	// Its clients keep per-object leases.
	RecoverPerObjectExpire
)

func (p RecoveryPolicy) String() string {
	return name(p, "RecoveryPolicy", "lease+fence", "honor-locks", "naive-steal", "fence-only",
		"heartbeat-steal", "per-object-expire")
}

// DataPath selects how file data moves.
type DataPath uint8

const (
	// DataDirect: clients read and write the SAN disks directly, caching
	// under logical locks; the server never touches file data (Storage
	// Tank, Fig 1).
	DataDirect DataPath = iota
	// DataFunctionShip: clients ship every data request to the server,
	// which performs the disk I/O — the traditional client/server file
	// system of §1.1, used by experiment F1.
	DataFunctionShip
	// DataNFSPoll is function shipping with NFS-style attribute polling
	// (§5): no locks, a TTL'd attribute cache, and weak consistency.
	DataNFSPoll
	// DataDLock replaces logical locking with GFS-style disk-address-range
	// locks enforced (with TTLs) by the disks themselves (§5). No data
	// caching: every operation pays disk round-trips for the lock.
	DataDLock
)

func (p DataPath) String() string {
	return name(p, "DataPath", "direct", "function-ship", "nfs-poll", "dlock")
}

// name is the name of the enum value v of type typ, or v's number.
func name[T ~uint8](v T, typ string, names ...string) string {
	if int(v) < len(names) {
		return names[v]
	}
	return fmt.Sprintf("%s(%d)", typ, uint8(v))
}

// Policy is one complete configuration: a name, and one value per axis.
type Policy struct {
	Name     string
	Recovery RecoveryPolicy
	Data     DataPath
}

// Lease is the lease the recovery relies on: the paper's for lease+fence,
// a heartbeat or per-object lease for the steals that wait one out.
func (p Policy) Lease() LeasePolicy {
	switch p.Recovery {
	case RecoverLeaseFence:
		return LeaseStorageTank
	case RecoverHeartbeatSteal:
		return LeaseHeartbeat
	case RecoverPerObjectExpire:
		return LeasePerObject
	}
	return LeaseNone
}

// CachesNames reports whether clients cache the namespace under shared
// directory locks: exactly where they cache data under logical locks.
// The function-ship, NFS and dlock configurations hold no logical locks
// and keep asking the server.
func (p Policy) CachesNames() bool { return p.Data == DataDirect }

// The named configurations the experiments run.

// StorageTank is the paper's system.
func StorageTank() Policy {
	return Policy{Name: "storage-tank", Recovery: RecoverLeaseFence, Data: DataDirect}
}

// Frangipani is the heartbeat-lease comparison (§5).
func Frangipani() Policy {
	return Policy{Name: "frangipani", Recovery: RecoverHeartbeatSteal, Data: DataDirect}
}

// VSystem is the per-object-lease comparison (§4).
func VSystem() Policy {
	return Policy{Name: "v-leases", Recovery: RecoverPerObjectExpire, Data: DataDirect}
}

// HonorLocks never recovers (§2's indefinite unavailability).
func HonorLocks() Policy {
	return Policy{Name: "honor-locks", Recovery: RecoverHonorLocks, Data: DataDirect}
}

// NaiveSteal is the traditional recovery applied unsafely to NAS (§1.2).
func NaiveSteal() Policy {
	return Policy{Name: "naive-steal", Recovery: RecoverStealImmediate, Data: DataDirect}
}

// FenceOnly is §2.1's inadequate strawman.
func FenceOnly() Policy {
	return Policy{Name: "fence-only", Recovery: RecoverFenceOnly, Data: DataDirect}
}

// FunctionShip is the traditional server-marshaled data path (F1
// comparison); recovery by immediate steal is safe there.
func FunctionShip() Policy {
	return Policy{Name: "function-ship", Recovery: RecoverStealImmediate, Data: DataFunctionShip}
}

// NFSPoll is the NFS comparison (§5): attribute polling, no locks, weak
// consistency, data through the server.
func NFSPoll() Policy {
	return Policy{Name: "nfs-poll", Recovery: RecoverStealImmediate, Data: DataNFSPoll}
}

// GFSDlock is the Global File System comparison (§5): physical locks on
// disk-address ranges, enforced by the disks with timeouts.
func GFSDlock() Policy {
	return Policy{Name: "gfs-dlock", Recovery: RecoverStealImmediate, Data: DataDLock}
}

// All returns every named policy, Storage Tank first.
func All() []Policy {
	return []Policy{StorageTank(), Frangipani(), VSystem(), HonorLocks(), NaiveSteal(), FenceOnly(), FunctionShip(), NFSPoll(), GFSDlock()}
}
