package storagetank

import (
	"testing"
	"time"

	"repro/internal/msg"
)

// Facade-level tests: what a downstream user of the public API sees.

func TestFacadeQuickstartFlow(t *testing.T) {
	cl := NewClusterWith()
	cl.Start()
	h, attr := cl.MustOpen(0, "/api.txt", true, true)
	if attr.Ino == 0 {
		t.Fatal("no inode")
	}
	payload := make([]byte, BlockSize)
	copy(payload, "through the facade")
	if errno := cl.Write(0, h, 0, payload); errno != msg.OK {
		t.Fatal(errno)
	}
	if errno := cl.Sync(0); errno != msg.OK {
		t.Fatal(errno)
	}
	h1, _, errno := cl.Open(1, "/api.txt", false, false)
	if errno != msg.OK {
		t.Fatal(errno)
	}
	data, errno := cl.Read(1, h1, 0)
	if errno != msg.OK || string(data[:18]) != "through the facade" {
		t.Fatalf("read: %v", errno)
	}
	cl.FinalCheck()
	if len(cl.Violations()) != 0 {
		t.Fatalf("violations: %v", cl.Violations())
	}
}

func TestFacadePolicies(t *testing.T) {
	if len(AllPolicies()) < 9 {
		t.Fatalf("policies = %d", len(AllPolicies()))
	}
	if StorageTank().Name != "storage-tank" {
		t.Fatal("wrong default policy")
	}
	// Every named policy builds both ends, which pick their seams from it.
	for _, p := range AllPolicies() {
		NewClusterWith(WithPolicy(p), WithClients(1), WithDisks(1)).Start()
	}
}

func TestFacadeExperiments(t *testing.T) {
	exps := Experiments()
	if len(exps) != 15 {
		t.Fatalf("experiments = %d, want 15", len(exps))
	}
	e, ok := ExperimentByID("F3")
	if !ok {
		t.Fatal("F3 missing")
	}
	r := e.Run(ExperimentParams{Seed: 3, Quick: true})
	if r.Metrics["violations.eps=0.05"] != 0 {
		t.Fatal("theorem violated through the facade")
	}
}

func TestFacadeWorkload(t *testing.T) {
	cl := NewClusterWith()
	cl.Start()
	cfg := DefaultWorkload()
	cfg.Files = 4
	cfg.BlocksPerFile = 2
	PopulateWorkload(cl, cfg)
	r := NewWorkloadRunner(cl, 0, cfg, 9)
	r.Start()
	cl.RunFor(10 * time.Second)
	if r.Ops < 20 {
		t.Fatalf("runner did %d ops", r.Ops)
	}
}

func TestFacadePhaseNames(t *testing.T) {
	phases := []Phase{PhaseNone, Phase1Valid, Phase2Renew, Phase3Quiet, Phase4Flush, PhaseExpired}
	seen := map[string]bool{}
	for _, p := range phases {
		if seen[p.String()] {
			t.Fatalf("duplicate phase name %q", p)
		}
		seen[p.String()] = true
	}
	if DefaultConfig().Validate() != nil {
		t.Fatal("default config invalid")
	}
}
