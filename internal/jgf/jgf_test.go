package jgf

import (
	"errors"
	"testing"

	"ppar/internal/core"
)

// run builds and runs one deployment of a kernel, failing the test on error.
func run(t *testing.T, cfg core.Config, factory core.Factory) core.Report {
	t.Helper()
	eng, err := core.New(cfg, factory)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run(%v/%dT/%dP): %v", cfg.Mode, cfg.Threads, cfg.Procs, err)
	}
	return eng.Report()
}

// deployments is the cross-product every kernel must agree on.
func deployments() []core.Config {
	return []core.Config{
		{Mode: core.Sequential},
		{Mode: core.Shared, Threads: 2},
		{Mode: core.Shared, Threads: 5},
		{Mode: core.Distributed, Procs: 2},
		{Mode: core.Distributed, Procs: 4},
		{Mode: core.Hybrid, Procs: 2, Threads: 2},
	}
}

func TestSORAllModes(t *testing.T) {
	ref := SORReference(40, 8)
	for _, cfg := range deployments() {
		cfg.AppName = "sor"
		cfg.Modules = SORModules(cfg.Mode)
		res := &SORResult{}
		run(t, cfg, func() core.App { return NewSOR(40, 8, res) })
		if res.Gtotal != ref {
			t.Errorf("%v/%dT/%dP: Gtotal=%v want %v", cfg.Mode, cfg.Threads, cfg.Procs, res.Gtotal, ref)
		}
	}
}

func TestSORRestartMatchesReference(t *testing.T) {
	dir := t.TempDir()
	ref := SORReference(32, 10)
	res := &SORResult{}
	factory := func() core.App { return NewSOR(32, 10, res) }
	cfg := core.Config{
		Mode: core.Distributed, Procs: 3, AppName: "sor",
		Modules:       SORModules(core.Distributed),
		CheckpointDir: dir, CheckpointEvery: 4, FailAtSafePoint: 6,
	}
	eng, err := core.New(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); !errors.Is(err, core.ErrInjectedFailure) {
		t.Fatalf("want failure, got %v", err)
	}
	cfg.FailAtSafePoint = 0
	eng2, err := core.New(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Run(); err != nil {
		t.Fatal(err)
	}
	if res.Gtotal != ref {
		t.Fatalf("restarted Gtotal=%v want %v", res.Gtotal, ref)
	}
}

func TestSORAdaptationMatchesReference(t *testing.T) {
	ref := SORReference(32, 10)
	res := &SORResult{}
	cfg := core.Config{
		Mode: core.Shared, Threads: 2, AppName: "sor",
		Modules: SORModules(core.Shared),
		Policy:  core.AdaptAt(5, core.AdaptTarget{Threads: 4}),
	}
	rep := run(t, cfg, func() core.App { return NewSOR(32, 10, res) })
	if !rep.Adapted {
		t.Error("not adapted")
	}
	if res.Gtotal != ref {
		t.Fatalf("adapted Gtotal=%v want %v", res.Gtotal, ref)
	}
}

func TestSeriesAllModes(t *testing.T) {
	// Sequential result is the reference.
	seqRes := &SeriesResult{}
	cfg0 := core.Config{Mode: core.Sequential, AppName: "series", Modules: SeriesModules(core.Sequential)}
	run(t, cfg0, func() core.App { return NewSeries(24, seqRes) })
	if seqRes.Checksum == 0 {
		t.Fatal("sequential series produced zero checksum")
	}
	for _, cfg := range deployments()[1:] {
		cfg.AppName = "series"
		cfg.Modules = SeriesModules(cfg.Mode)
		res := &SeriesResult{}
		run(t, cfg, func() core.App { return NewSeries(24, res) })
		if res.Checksum != seqRes.Checksum {
			t.Errorf("%v/%dT/%dP: checksum=%v want %v", cfg.Mode, cfg.Threads, cfg.Procs, res.Checksum, seqRes.Checksum)
		}
	}
}

func TestSeriesFirstCoefficient(t *testing.T) {
	// The n=0 coefficient of (x+1)^x on [0,2] is ~2.8779 (JGF validates
	// against 2.87...); our trapezoid at 200 intervals should be close.
	res := &SeriesResult{}
	cfg := core.Config{Mode: core.Sequential, AppName: "series"}
	s := NewSeries(4, res)
	run(t, cfg, func() core.App { return s })
	if s.A[0] < 2.8 || s.A[0] > 2.95 {
		t.Errorf("a0 = %v, want ~2.88", s.A[0])
	}
}

func TestCryptAllModes(t *testing.T) {
	var refSum int64
	for i, cfg := range deployments() {
		cfg.AppName = "crypt"
		cfg.Modules = CryptModules(cfg.Mode)
		res := &CryptResult{}
		run(t, cfg, func() core.App { return NewCrypt(1024, res) })
		if !res.OK {
			t.Fatalf("%v/%dT/%dP: IDEA round trip failed", cfg.Mode, cfg.Threads, cfg.Procs)
		}
		if i == 0 {
			refSum = res.Checksum
			if refSum == 0 {
				t.Fatal("zero ciphertext checksum")
			}
		} else if res.Checksum != refSum {
			t.Errorf("%v: ciphertext checksum %d want %d", cfg.Mode, res.Checksum, refSum)
		}
	}
}

func TestSparseAllModes(t *testing.T) {
	var ref float64
	for i, cfg := range deployments() {
		cfg.AppName = "sparse"
		cfg.Modules = SparseModules(cfg.Mode)
		res := &SparseResult{}
		run(t, cfg, func() core.App { return NewSparse(200, 6, 5, res) })
		if i == 0 {
			ref = res.Ytotal
			if ref == 0 {
				t.Fatal("zero Ytotal")
			}
		} else if res.Ytotal != ref {
			t.Errorf("%v/%dT/%dP: Ytotal=%v want %v", cfg.Mode, cfg.Threads, cfg.Procs, res.Ytotal, ref)
		}
	}
}

func TestLUFactSolves(t *testing.T) {
	for _, cfg := range []core.Config{
		{Mode: core.Sequential},
		{Mode: core.Shared, Threads: 3},
	} {
		cfg.AppName = "lu"
		cfg.Modules = LUModules(cfg.Mode)
		res := &LUResult{}
		run(t, cfg, func() core.App { return NewLUFact(48, res) })
		if !res.OK {
			t.Errorf("%v: residual %v too large", cfg.Mode, res.Residual)
		}
	}
}

func TestLUFactRestart(t *testing.T) {
	dir := t.TempDir()
	res := &LUResult{}
	factory := func() core.App { return NewLUFact(48, res) }
	cfg := core.Config{
		Mode: core.Shared, Threads: 2, AppName: "lu",
		Modules:       LUModules(core.Shared),
		CheckpointDir: dir, CheckpointEvery: 10, FailAtSafePoint: 25,
	}
	eng, _ := core.New(cfg, factory)
	if err := eng.Run(); !errors.Is(err, core.ErrInjectedFailure) {
		t.Fatalf("want failure, got %v", err)
	}
	cfg.FailAtSafePoint = 0
	eng2, _ := core.New(cfg, factory)
	if err := eng2.Run(); err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("restarted LU residual %v too large", res.Residual)
	}
}

func TestMonteCarloAllModes(t *testing.T) {
	var ref float64
	for i, cfg := range deployments() {
		cfg.AppName = "mc"
		cfg.Modules = MCModules(cfg.Mode)
		res := &MCResult{}
		run(t, cfg, func() core.App { return NewMonteCarlo(512, res) })
		if i == 0 {
			ref = res.Price
			if ref <= 0 {
				t.Fatalf("implausible price %v", ref)
			}
		} else if res.Price != ref {
			t.Errorf("%v/%dT/%dP: price=%v want %v", cfg.Mode, cfg.Threads, cfg.Procs, res.Price, ref)
		}
	}
}

func TestMonteCarloPriceSanity(t *testing.T) {
	// Black-Scholes for these parameters gives ~12.35; Monte Carlo with
	// 4096 paths should land within a wide tolerance.
	res := &MCResult{}
	cfg := core.Config{Mode: core.Sequential, AppName: "mc"}
	run(t, cfg, func() core.App { return NewMonteCarlo(4096, res) })
	if res.Price < 10 || res.Price > 15 {
		t.Errorf("price = %v, want ~12.3", res.Price)
	}
}

func TestSORChecksumClose(t *testing.T) {
	if !SORChecksumClose(1.0, 1.0) {
		t.Error("identical values not close")
	}
	if SORChecksumClose(1.0, 1.1) {
		t.Error("distant values close")
	}
}
