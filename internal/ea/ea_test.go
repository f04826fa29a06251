package ea

import (
	"errors"
	"testing"

	"ppar/internal/core"
)

func runGA(t *testing.T, cfg core.Config, p Problem, pop, gens int) *Result {
	t.Helper()
	res := &Result{}
	cfg.AppName = "ea-" + p.Name()
	if cfg.Modules == nil {
		cfg.Modules = Modules(cfg.Mode)
	}
	eng, err := core.New(cfg, func() core.App { return New(p, pop, gens, 7, res) })
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAllModesAgree(t *testing.T) {
	p := Sphere{D: 6}
	ref := runGA(t, core.Config{Mode: core.Sequential}, p, 40, 15)
	for _, cfg := range []core.Config{
		{Mode: core.Shared, Threads: 3},
		{Mode: core.Distributed, Procs: 2},
		{Mode: core.Distributed, Procs: 4},
		{Mode: core.Hybrid, Procs: 2, Threads: 2},
	} {
		got := runGA(t, cfg, p, 40, 15)
		if got.Best != ref.Best {
			t.Errorf("%v/%dT/%dP: best=%v want %v", cfg.Mode, cfg.Threads, cfg.Procs, got.Best, ref.Best)
		}
	}
}

func TestGAConverges(t *testing.T) {
	p := Sphere{D: 4}
	res := runGA(t, core.Config{Mode: core.Sequential}, p, 60, 60)
	if res.Best > 1.0 {
		t.Errorf("sphere best after 60 gens = %v, want < 1", res.Best)
	}
	// More generations should not be worse (elitism).
	short := runGA(t, core.Config{Mode: core.Sequential}, p, 60, 10)
	if res.Best > short.Best {
		t.Errorf("longer run worse: %v > %v", res.Best, short.Best)
	}
}

func TestRastriginEvaluate(t *testing.T) {
	r := Rastrigin{D: 3}
	if v := r.Evaluate([]float64{0, 0, 0}); v != 0 {
		t.Errorf("rastrigin(0) = %v", v)
	}
	if v := r.Evaluate([]float64{1, 1, 1}); v <= 0 {
		t.Errorf("rastrigin(1) = %v, want > 0", v)
	}
}

func TestCheckpointRestart(t *testing.T) {
	p := Rastrigin{D: 5}
	ref := runGA(t, core.Config{Mode: core.Sequential}, p, 30, 20)

	dir := t.TempDir()
	res := &Result{}
	factory := func() core.App { return New(p, 30, 20, 7, res) }
	cfg := core.Config{
		Mode: core.Shared, Threads: 2, AppName: "ea-rastrigin",
		Modules:       Modules(core.Shared),
		CheckpointDir: dir, CheckpointEvery: 6, FailAtSafePoint: 15,
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
	if res.Best != ref.Best {
		t.Fatalf("restarted best=%v want %v", res.Best, ref.Best)
	}
}

func TestAdaptationMidEvolution(t *testing.T) {
	p := Sphere{D: 6}
	ref := runGA(t, core.Config{Mode: core.Sequential}, p, 40, 15)
	got := runGA(t, core.Config{
		Mode: core.Distributed, Procs: 2,
		Policy: core.AdaptAt(8, core.AdaptTarget{Procs: 4}),
	}, p, 40, 15)
	if got.Best != ref.Best {
		t.Fatalf("adapted best=%v want %v", got.Best, ref.Best)
	}
}
