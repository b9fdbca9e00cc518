// Package baselines defines the policy axes along which the reproduction
// compares the paper's protocol against prior systems (§1.2, §2.1, §4,
// §5): how leases are maintained, how the server recovers locks from
// unreachable clients, and how file data travels. The real client/server
// implementations are parameterized by these policies, so every baseline
// exercises the same metadata, lock, cache, and network code — only the
// safety/recovery behaviour differs.
package baselines

import "fmt"

// LeasePolicy selects the lease/liveness mechanism.
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
	switch p {
	case LeaseStorageTank:
		return "storage-tank"
	case LeaseHeartbeat:
		return "heartbeat"
	case LeasePerObject:
		return "per-object"
	case LeaseNone:
		return "no-lease"
	}
	return fmt.Sprintf("LeasePolicy(%d)", uint8(p))
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
	// and fences. Pairs with LeaseHeartbeat.
	RecoverHeartbeatSteal
	// RecoverPerObjectExpire waits τ(1+ε) (the worst-case remaining
	// validity of any of the client's per-object leases), then steals.
	// Pairs with LeasePerObject.
	RecoverPerObjectExpire
)

func (p RecoveryPolicy) String() string {
	switch p {
	case RecoverLeaseFence:
		return "lease+fence"
	case RecoverHonorLocks:
		return "honor-locks"
	case RecoverStealImmediate:
		return "naive-steal"
	case RecoverFenceOnly:
		return "fence-only"
	case RecoverHeartbeatSteal:
		return "heartbeat-steal"
	case RecoverPerObjectExpire:
		return "per-object-expire"
	}
	return fmt.Sprintf("RecoveryPolicy(%d)", uint8(p))
}

// DataPath selects how file data moves.
type DataPath uint8

const (
	// DataDirect: clients read and write the SAN disks directly; the
	// server never touches file data (Storage Tank, Fig 1).
	DataDirect DataPath = iota
	// DataFunctionShip: clients ship every data request to the server,
	// which performs the disk I/O — the traditional client/server file
	// system of §1.1, used by experiment F1.
	DataFunctionShip
)

func (p DataPath) String() string {
	if p == DataDirect {
		return "direct"
	}
	return "function-ship"
}

// Policy is one complete configuration.
type Policy struct {
	Name     string
	Lease    LeasePolicy
	Recovery RecoveryPolicy
	Data     DataPath
	// NFS enables NFS-style attribute polling on the function-ship path:
	// no locks, a TTL'd attribute cache, and weak consistency (§5).
	NFS bool
	// DLock replaces logical locking with GFS-style disk-address-range
	// locks enforced (with TTLs) by the disks themselves (§5). No data
	// caching: every operation pays disk round-trips for the lock.
	DLock bool
}

// CachesNames reports whether clients cache the namespace under shared
// directory locks: exactly where they cache data under logical locks.
// The function-ship, NFS and dlock configurations hold no logical locks
// and keep asking the server.
func (p Policy) CachesNames() bool {
	return p.Data == DataDirect && !p.DLock && !p.NFS
}

// Validate rejects combinations that make no sense.
func (p Policy) Validate() error {
	switch p.Lease {
	case LeaseStorageTank:
		if p.Recovery != RecoverLeaseFence {
			return fmt.Errorf("baselines: %s requires lease+fence recovery", p.Lease)
		}
	case LeaseHeartbeat:
		if p.Recovery != RecoverHeartbeatSteal {
			return fmt.Errorf("baselines: %s requires heartbeat-steal recovery", p.Lease)
		}
	case LeasePerObject:
		if p.Recovery != RecoverPerObjectExpire {
			return fmt.Errorf("baselines: %s requires per-object-expire recovery", p.Lease)
		}
	case LeaseNone:
		switch p.Recovery {
		case RecoverHonorLocks, RecoverStealImmediate, RecoverFenceOnly:
		default:
			return fmt.Errorf("baselines: no-lease cannot use %s recovery", p.Recovery)
		}
	}
	return nil
}

// The named configurations the experiments run.

// StorageTank is the paper's system.
func StorageTank() Policy {
	return Policy{Name: "storage-tank", Lease: LeaseStorageTank, Recovery: RecoverLeaseFence, Data: DataDirect}
}

// Frangipani is the heartbeat-lease comparison (§5).
func Frangipani() Policy {
	return Policy{Name: "frangipani", Lease: LeaseHeartbeat, Recovery: RecoverHeartbeatSteal, Data: DataDirect}
}

// VSystem is the per-object-lease comparison (§4).
func VSystem() Policy {
	return Policy{Name: "v-leases", Lease: LeasePerObject, Recovery: RecoverPerObjectExpire, Data: DataDirect}
}

// HonorLocks never recovers (§2's indefinite unavailability).
func HonorLocks() Policy {
	return Policy{Name: "honor-locks", Lease: LeaseNone, Recovery: RecoverHonorLocks, Data: DataDirect}
}

// NaiveSteal is the traditional recovery applied unsafely to NAS (§1.2).
func NaiveSteal() Policy {
	return Policy{Name: "naive-steal", Lease: LeaseNone, Recovery: RecoverStealImmediate, Data: DataDirect}
}

// FenceOnly is §2.1's inadequate strawman.
func FenceOnly() Policy {
	return Policy{Name: "fence-only", Lease: LeaseNone, Recovery: RecoverFenceOnly, Data: DataDirect}
}

// FunctionShip is the traditional server-marshaled data path (F1
// comparison); recovery by immediate steal is safe there.
func FunctionShip() Policy {
	return Policy{Name: "function-ship", Lease: LeaseNone, Recovery: RecoverStealImmediate, Data: DataFunctionShip}
}

// NFSPoll is the NFS comparison (§5): attribute polling, no locks, weak
// consistency, data through the server.
func NFSPoll() Policy {
	return Policy{Name: "nfs-poll", Lease: LeaseNone, Recovery: RecoverStealImmediate, Data: DataFunctionShip, NFS: true}
}

// GFSDlock is the Global File System comparison (§5): physical locks on
// disk-address ranges, enforced by the disks with timeouts.
func GFSDlock() Policy {
	return Policy{Name: "gfs-dlock", Lease: LeaseNone, Recovery: RecoverStealImmediate, Data: DataDirect, DLock: true}
}

// All returns every named policy, Storage Tank first.
func All() []Policy {
	return []Policy{StorageTank(), Frangipani(), VSystem(), HonorLocks(), NaiveSteal(), FenceOnly(), FunctionShip(), NFSPoll(), GFSDlock()}
}
