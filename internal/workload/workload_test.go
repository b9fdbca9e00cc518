package workload

import (
	"testing"
	"time"

	"repro/internal/cluster"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{},
		{Files: 1, BlocksPerFile: 1, ReadFrac: 0.9, WriteFrac: 0.9, MeanThink: 1},
		{Files: 1, BlocksPerFile: 1, MeanThink: 0},
		{Files: 1, BlocksPerFile: 1, MeanThink: 1, DutyCycle: 2},
		{Files: 1, BlocksPerFile: 1, MeanThink: 1, DutyCycle: 0.5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("config %d should be invalid", i)
		}
	}
}

func TestPickerDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	a, b := NewPicker(cfg, 7), NewPicker(cfg, 7)
	for i := 0; i < 100; i++ {
		if a.File() != b.File() || a.Op() != b.Op() || a.Think() != b.Think() || a.Block() != b.Block() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestPickerZipfSkew(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Files = 100
	p := NewPicker(cfg, 3)
	counts := make([]int, cfg.Files)
	for i := 0; i < 10000; i++ {
		counts[p.File()]++
	}
	// Zipf: the most popular file dominates.
	if counts[0] < 2000 {
		t.Fatalf("file 0 picked %d/10000 — not skewed", counts[0])
	}
	// Uniform when ZipfS = 0.
	cfg.ZipfS = 0
	p = NewPicker(cfg, 3)
	counts = make([]int, cfg.Files)
	for i := 0; i < 10000; i++ {
		counts[p.File()]++
	}
	if counts[0] > 400 {
		t.Fatalf("uniform pick skewed: %d", counts[0])
	}
}

func TestPickerOpMix(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReadFrac, cfg.WriteFrac, cfg.StatFrac = 0.5, 0.3, 0.1
	p := NewPicker(cfg, 9)
	var counts [4]int
	const n = 20000
	for i := 0; i < n; i++ {
		counts[p.Op()]++
	}
	check := func(kind OpKind, want float64) {
		got := float64(counts[kind]) / n
		if got < want-0.05 || got > want+0.05 {
			t.Fatalf("%v fraction = %.3f, want ~%.2f", kind, got, want)
		}
	}
	check(OpRead, 0.5)
	check(OpWrite, 0.3)
	check(OpStat, 0.1)
	check(OpReaddir, 0.1)
}

func TestThinkBounds(t *testing.T) {
	p := NewPicker(DefaultConfig(), 11)
	for i := 0; i < 1000; i++ {
		d := p.Think()
		if d < time.Microsecond || d > 100*DefaultConfig().MeanThink {
			t.Fatalf("think time %v out of bounds", d)
		}
	}
}

func TestOpKindStrings(t *testing.T) {
	for k := OpRead; k <= OpReaddir; k++ {
		if k.String() == "" {
			t.Fatal("empty op name")
		}
	}
	if OpKind(9).String() == "" {
		t.Fatal("unknown op must format")
	}
}

func TestRunnerDrivesCluster(t *testing.T) {
	opts := cluster.DefaultOptions()
	opts.Clients = 3
	cl := cluster.New(opts)
	cl.Start()

	wcfg := DefaultConfig()
	wcfg.Files = 10
	wcfg.BlocksPerFile = 4
	Populate(cl, wcfg)

	runners := make([]*Runner, len(cl.Clients))
	for i := range runners {
		runners[i] = NewRunner(cl, i, wcfg, int64(100+i))
		runners[i].Start()
	}
	cl.RunFor(30 * time.Second)
	for i, r := range runners {
		r.Stop()
		if r.Ops < 50 {
			t.Fatalf("runner %d completed only %d ops", i, r.Ops)
		}
		if r.Errors > r.Ops/10 {
			t.Fatalf("runner %d error rate too high: %d/%d", i, r.Errors, r.Ops)
		}
	}
	// The workload must exercise reads AND writes.
	var reads, writes uint64
	for _, r := range runners {
		reads += r.ByKind[OpRead]
		writes += r.ByKind[OpWrite]
	}
	if reads == 0 || writes == 0 {
		t.Fatalf("op mix degenerate: reads=%d writes=%d", reads, writes)
	}
	// And the whole run must be consistent.
	for i := range runners {
		cl.Sync(i)
	}
	cl.FinalCheck()
	if got := cl.Violations(); len(got) != 0 {
		t.Fatalf("violations under normal contention: %v", got)
	}
}

func TestRunnerDutyCycleIdles(t *testing.T) {
	opts := cluster.DefaultOptions()
	opts.Clients = 1
	cl := cluster.New(opts)
	cl.Start()
	wcfg := DefaultConfig()
	wcfg.Files = 4
	wcfg.BlocksPerFile = 2
	wcfg.DutyCycle = 0.2
	wcfg.DutyPeriod = 10 * time.Second
	Populate(cl, wcfg)

	r := NewRunner(cl, 0, wcfg, 5)
	r.Start()
	cl.RunFor(40 * time.Second)
	busy := r.Ops

	// A full-duty runner does far more work in the same interval.
	cl2 := cluster.New(opts)
	cl2.Start()
	wcfg.DutyCycle = 1
	Populate(cl2, wcfg)
	r2 := NewRunner(cl2, 0, wcfg, 5)
	r2.Start()
	cl2.RunFor(40 * time.Second)

	if busy*2 >= r2.Ops {
		t.Fatalf("duty cycle ineffective: 20%% duty did %d ops vs full %d", busy, r2.Ops)
	}
}
