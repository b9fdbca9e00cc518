package baselines

import "testing"

func TestNamedPoliciesValidate(t *testing.T) {
	names := make(map[string]bool)
	for _, p := range All() {
		if p.Name == "" {
			t.Error("unnamed policy")
		}
		if names[p.Name] {
			t.Errorf("duplicate policy name %q", p.Name)
		}
		names[p.Name] = true
	}
	if len(names) != 9 {
		t.Fatalf("expected 9 named policies, got %d", len(names))
	}
	if All()[0].Name != "storage-tank" {
		t.Fatal("storage-tank must come first")
	}
	if st := StorageTank(); st.Recovery != 0 || st.Data != 0 {
		t.Fatal("the zero policy must be the paper's protocol")
	}
}

// TestLeaseFollowsRecovery: each recovery relies on exactly one lease
// mechanism, the paper's lease+fence on the paper's lease.
func TestLeaseFollowsRecovery(t *testing.T) {
	want := map[RecoveryPolicy]LeasePolicy{
		RecoverLeaseFence:      LeaseStorageTank,
		RecoverHeartbeatSteal:  LeaseHeartbeat,
		RecoverPerObjectExpire: LeasePerObject,
		RecoverHonorLocks:      LeaseNone,
		RecoverStealImmediate:  LeaseNone,
		RecoverFenceOnly:       LeaseNone,
	}
	for r, l := range want {
		if got := (Policy{Recovery: r}).Lease(); got != l {
			t.Errorf("%s: lease %s, want %s", r, got, l)
		}
	}
	if (Policy{}).Lease() != LeaseStorageTank {
		t.Error("the zero policy must keep the paper's lease")
	}
}

func TestEnumStrings(t *testing.T) {
	for _, p := range []LeasePolicy{LeaseStorageTank, LeaseHeartbeat, LeasePerObject, LeaseNone, LeasePolicy(99)} {
		if p.String() == "" {
			t.Errorf("empty string for lease policy %d", p)
		}
	}
	for _, r := range []RecoveryPolicy{RecoverLeaseFence, RecoverHonorLocks, RecoverStealImmediate,
		RecoverFenceOnly, RecoverHeartbeatSteal, RecoverPerObjectExpire, RecoveryPolicy(99)} {
		if r.String() == "" {
			t.Errorf("empty string for recovery policy %d", r)
		}
	}
	seen := make(map[string]bool)
	for _, d := range []DataPath{DataDirect, DataFunctionShip, DataNFSPoll, DataDLock, DataPath(99)} {
		if s := d.String(); s == "" || seen[s] {
			t.Errorf("data path %d: string %q empty or repeated", d, s)
		} else {
			seen[s] = true
		}
	}
}

func TestPolicyFlags(t *testing.T) {
	if NFSPoll().Data != DataNFSPoll || NFSPoll().CachesNames() {
		t.Fatal("NFSPoll data path wrong")
	}
	if GFSDlock().Data != DataDLock || GFSDlock().CachesNames() {
		t.Fatal("GFSDlock data path wrong")
	}
	if FunctionShip().Data != DataFunctionShip || FunctionShip().CachesNames() {
		t.Fatal("FunctionShip data path wrong")
	}
	if StorageTank().Data != DataDirect || !StorageTank().CachesNames() {
		t.Fatal("StorageTank must move data directly and cache names")
	}
}
