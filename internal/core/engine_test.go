package core

import (
	"errors"
	"strings"
	"testing"
)

const (
	tN     = 24
	tIters = 12
)

// runStencil executes one deployment and returns the master's final grid.
func runStencil(t *testing.T, cfg Config) ([][]float64, Report) {
	t.Helper()
	sink := &resultSink{}
	if cfg.Modules == nil {
		cfg.Modules = modulesFor(cfg.Mode)
	}
	if cfg.AppName == "" {
		cfg.AppName = "stencil"
	}
	eng, err := New(cfg, func() App { return newStencil(tN, tIters, sink) })
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run(%v): %v", cfg.Mode, err)
	}
	g := sink.get()
	if g == nil {
		t.Fatalf("Run(%v): no result reported", cfg.Mode)
	}
	return g, eng.Report()
}

func gridsEqual(t *testing.T, what string, a, b [][]float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d rows vs %d", what, len(a), len(b))
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("%s: mismatch at (%d,%d): %v vs %v", what, i, j, a[i][j], b[i][j])
			}
		}
	}
}

// The headline property of pluggable parallelisation: the same base code
// produces bit-identical results under every plugged deployment.
func TestAllModesAgree(t *testing.T) {
	ref, _ := runStencil(t, Config{Mode: Sequential})
	cases := []Config{
		{Mode: Shared, Threads: 1},
		{Mode: Shared, Threads: 3},
		{Mode: Shared, Threads: 8},
		{Mode: Distributed, Procs: 2},
		{Mode: Distributed, Procs: 5},
		{Mode: Hybrid, Procs: 2, Threads: 3},
		{Mode: Hybrid, Procs: 3, Threads: 2},
	}
	for _, cfg := range cases {
		got, _ := runStencil(t, cfg)
		gridsEqual(t, cfg.Mode.String(), ref, got)
	}
}

func TestTCPTransportAgrees(t *testing.T) {
	ref, _ := runStencil(t, Config{Mode: Sequential})
	got, _ := runStencil(t, Config{Mode: Distributed, Procs: 3, TCP: true})
	gridsEqual(t, "tcp", ref, got)
}

func TestSafePointsCounted(t *testing.T) {
	_, rep := runStencil(t, Config{Mode: Sequential})
	if rep.SafePoints != tIters {
		t.Fatalf("safe points = %d, want %d", rep.SafePoints, tIters)
	}
}

func TestCheckpointTaken(t *testing.T) {
	dir := t.TempDir()
	_, rep := runStencil(t, Config{
		Mode: Shared, Threads: 2,
		CheckpointDir: dir, CheckpointEvery: 5,
	})
	if rep.Checkpoints != 2 { // at sp 5 and 10 (12 iters)
		t.Fatalf("checkpoints = %d, want 2", rep.Checkpoints)
	}
	if rep.SaveBytes == 0 || rep.SaveTotal == 0 {
		t.Fatalf("save accounting empty: %+v", rep)
	}
}

func TestMaxCheckpointsCap(t *testing.T) {
	dir := t.TempDir()
	_, rep := runStencil(t, Config{
		Mode:          Sequential,
		CheckpointDir: dir, CheckpointEvery: 3, MaxCheckpoints: 1,
	})
	if rep.Checkpoints != 1 {
		t.Fatalf("checkpoints = %d, want 1", rep.Checkpoints)
	}
}

// Failure + restart in every mode: the restarted run must produce exactly
// the uninterrupted result, replaying to the checkpoint then continuing.
func TestFailureRestartEquivalence(t *testing.T) {
	ref, _ := runStencil(t, Config{Mode: Sequential})
	cases := []struct {
		name string
		cfg  Config
	}{
		{"seq", Config{Mode: Sequential}},
		{"smp", Config{Mode: Shared, Threads: 3}},
		{"dist", Config{Mode: Distributed, Procs: 3}},
		{"dist-shards", Config{Mode: Distributed, Procs: 3, ShardCheckpoints: true}},
		{"hybrid", Config{Mode: Hybrid, Procs: 2, Threads: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			sink := &resultSink{}
			cfg := tc.cfg
			cfg.AppName = "stencil"
			cfg.Modules = modulesFor(cfg.Mode)
			cfg.CheckpointDir = dir
			cfg.CheckpointEvery = 4
			cfg.FailAtSafePoint = 9 // after the sp-8 checkpoint

			eng, err := New(cfg, func() App { return newStencil(tN, tIters, sink) })
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Run(); !errors.Is(err, ErrInjectedFailure) {
				t.Fatalf("first run: %v, want injected failure", err)
			}

			// Relaunch without the failure: pcr detects the crash and replays.
			cfg2 := cfg
			cfg2.FailAtSafePoint = 0
			eng2, err := New(cfg2, func() App { return newStencil(tN, tIters, sink) })
			if err != nil {
				t.Fatal(err)
			}
			if err := eng2.Run(); err != nil {
				t.Fatalf("restart run: %v", err)
			}
			rep := eng2.Report()
			if !rep.Restarted {
				t.Error("restart not recorded")
			}
			if rep.LoadTotal == 0 {
				t.Error("load time not recorded")
			}
			gridsEqual(t, tc.name, ref, sink.get())
		})
	}
}

func TestCrashBeforeAnyCheckpointRerunsFromScratch(t *testing.T) {
	dir := t.TempDir()
	sink := &resultSink{}
	cfg := Config{
		Mode: Sequential, AppName: "stencil", Modules: modulesFor(Sequential),
		CheckpointDir: dir, CheckpointEvery: 100, // never due
		FailAtSafePoint: 3,
	}
	eng, _ := New(cfg, func() App { return newStencil(tN, tIters, sink) })
	if err := eng.Run(); !errors.Is(err, ErrInjectedFailure) {
		t.Fatalf("first run: %v", err)
	}
	cfg.FailAtSafePoint = 0
	eng2, _ := New(cfg, func() App { return newStencil(tN, tIters, sink) })
	if err := eng2.Run(); err != nil {
		t.Fatalf("re-run: %v", err)
	}
	ref, _ := runStencil(t, Config{Mode: Sequential})
	gridsEqual(t, "from-scratch", ref, sink.get())
}

// Run-time thread adaptation (§IV.B): grow and shrink mid-region, results
// unchanged.
func TestThreadAdaptation(t *testing.T) {
	ref, _ := runStencil(t, Config{Mode: Sequential})
	cases := []struct {
		name     string
		from, to int
	}{
		{"grow-1-to-4", 1, 4},
		{"grow-2-to-3", 2, 3},
		{"shrink-4-to-2", 4, 2},
		{"shrink-3-to-1", 3, 1},
		{"same-2-to-2", 2, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, rep := runStencil(t, Config{
				Mode: Shared, Threads: tc.from,
				Policy: AdaptAt(6, AdaptTarget{Threads: tc.to}),
			})
			gridsEqual(t, tc.name, ref, got)
			if tc.from != tc.to && !rep.Adapted {
				t.Error("adaptation not recorded")
			}
		})
	}
}

// The RequestAdapt path: the coordinator notices the pending request at its
// next safe point and schedules the adaptation one safe point later.
func TestRequestAdaptPath(t *testing.T) {
	ref, _ := runStencil(t, Config{Mode: Sequential})
	sink := &resultSink{}
	cfg := Config{Mode: Shared, Threads: 2, AppName: "stencil", Modules: modulesFor(Shared)}
	eng, err := New(cfg, func() App { return newStencil(tN, tIters, sink) })
	if err != nil {
		t.Fatal(err)
	}
	eng.RequestAdapt(AdaptTarget{Threads: 4})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !eng.Report().Adapted {
		t.Error("adaptation not applied")
	}
	gridsEqual(t, "request-adapt", ref, sink.get())
}

// Run-time world adaptation: grow and shrink the number of replicas.
func TestProcAdaptation(t *testing.T) {
	ref, _ := runStencil(t, Config{Mode: Sequential})
	cases := []struct {
		name     string
		from, to int
	}{
		{"grow-1-to-3", 1, 3},
		{"grow-2-to-4", 2, 4},
		{"shrink-4-to-2", 4, 2},
		{"shrink-3-to-1", 3, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, rep := runStencil(t, Config{
				Mode: Distributed, Procs: tc.from,
				Policy: AdaptAt(6, AdaptTarget{Procs: tc.to}),
			})
			gridsEqual(t, tc.name, ref, got)
			if !rep.Adapted {
				t.Error("adaptation not recorded")
			}
		})
	}
}

// Adaptation by restart (Figures 6/7): checkpoint-and-stop in one mode,
// relaunch in ANOTHER mode from the canonical snapshot. This is the
// cross-mode malleability §IV.A claims for gather-at-master checkpoints.
func TestStopRestartAcrossModes(t *testing.T) {
	ref, _ := runStencil(t, Config{Mode: Sequential})
	transitions := []struct {
		name string
		from Config
		to   Config
	}{
		{"seq-to-smp", Config{Mode: Sequential}, Config{Mode: Shared, Threads: 3}},
		{"smp-to-dist", Config{Mode: Shared, Threads: 2}, Config{Mode: Distributed, Procs: 3}},
		{"dist-to-seq", Config{Mode: Distributed, Procs: 3}, Config{Mode: Sequential}},
		{"dist-to-dist-wider", Config{Mode: Distributed, Procs: 2}, Config{Mode: Distributed, Procs: 4}},
		{"dist-to-hybrid", Config{Mode: Distributed, Procs: 2}, Config{Mode: Hybrid, Procs: 2, Threads: 2}},
	}
	for _, tr := range transitions {
		t.Run(tr.name, func(t *testing.T) {
			dir := t.TempDir()
			sink := &resultSink{}
			from := tr.from
			from.AppName = "stencil"
			from.Modules = modulesFor(from.Mode)
			from.CheckpointDir = dir
			from.Policy = StopAt(7)
			eng, err := New(from, func() App { return newStencil(tN, tIters, sink) })
			if err != nil {
				t.Fatal(err)
			}
			err = eng.Run()
			var stopped *ErrStopped
			if !errors.As(err, &stopped) {
				t.Fatalf("first run: %v, want ErrStopped", err)
			}
			if stopped.SafePoint != 7 {
				t.Fatalf("stopped at %d, want 7", stopped.SafePoint)
			}

			to := tr.to
			to.AppName = "stencil"
			to.Modules = modulesFor(to.Mode)
			to.CheckpointDir = dir
			eng2, err := New(to, func() App { return newStencil(tN, tIters, sink) })
			if err != nil {
				t.Fatal(err)
			}
			if err := eng2.Run(); err != nil {
				t.Fatalf("restart run: %v", err)
			}
			if !eng2.Report().Restarted {
				t.Error("restart not recorded")
			}
			gridsEqual(t, tr.name, ref, sink.get())
		})
	}
}

// In-process migration on the stencil app, whose checkpoint module marks
// the sweeps Ignorable: the post-migration replay must skip them and
// restore the grid purely from the migration snapshot — the strongest
// fidelity check of the canonical capture.
func TestInProcessMigrationStencil(t *testing.T) {
	ref, _ := runStencil(t, Config{Mode: Sequential})
	full := []*Module{stencilSMP(), stencilDist(), stencilCkpt()}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"smp-to-dist", Config{Mode: Shared, Threads: 2, Modules: full,
			Policy: AdaptAt(5, AdaptTarget{Mode: Distributed, Procs: 3})}},
		{"dist-to-smp", Config{Mode: Distributed, Procs: 3, Modules: full,
			Policy: AdaptAt(5, AdaptTarget{Mode: Shared, Threads: 3})}},
		{"seq-to-hybrid", Config{Mode: Sequential, Modules: full,
			Policy: AdaptAt(5, AdaptTarget{Mode: Hybrid, Procs: 2, Threads: 2})}},
		{"hybrid-to-seq", Config{Mode: Hybrid, Procs: 2, Threads: 2, Modules: full,
			Policy: AdaptAt(5, AdaptTarget{Mode: Sequential})}},
		{"tcp-to-smp", Config{Mode: Distributed, Procs: 2, TCP: true, Modules: full,
			Policy: AdaptAt(5, AdaptTarget{Mode: Shared, Threads: 2})}},
		// With TCP configured, the migration target's world is built over a
		// fresh TCP transport — the fixed-world constraint only ever bound
		// in-place resizing, not executor rebuilds.
		{"smp-to-tcp", Config{Mode: Shared, Threads: 2, TCP: true, Modules: full,
			Policy: AdaptAt(5, AdaptTarget{Mode: Distributed, Procs: 2})}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, rep := runStencil(t, tc.cfg)
			gridsEqual(t, tc.name, ref, got)
			if rep.Migrations != 1 || !rep.Adapted {
				t.Fatalf("migration not recorded: %+v", rep)
			}
		})
	}
}

// Migration composes with in-place adaptation: reshape the team, migrate to
// a world, reshape the world — all inside one Run.
func TestMigrationComposesWithResizing(t *testing.T) {
	ref, _ := runStencil(t, Config{Mode: Sequential})
	full := []*Module{stencilSMP(), stencilDist(), stencilCkpt()}
	got, rep := runStencil(t, Config{
		Mode: Shared, Threads: 2, Modules: full,
		Policy: Schedule(
			AdaptStep{At: 3, Target: AdaptTarget{Threads: 4}},
			AdaptStep{At: 6, Target: AdaptTarget{Mode: Distributed, Procs: 2}},
			AdaptStep{At: 9, Target: AdaptTarget{Procs: 4}},
		),
	})
	gridsEqual(t, "resize-migrate-resize", ref, got)
	if rep.Migrations != 1 {
		t.Fatalf("want 1 migration, got %+v", rep)
	}
}

func TestParseMode(t *testing.T) {
	for m := Sequential; m <= Hybrid; m++ {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("mpi"); err == nil {
		t.Fatal("ParseMode accepted an unknown name")
	}
}

// The four stock executors expose the deployment they implement and whether
// they spawn teams; the engine builds them from the current topology.
func TestStockExecutors(t *testing.T) {
	for _, tc := range []struct {
		mode  Mode
		teams bool
	}{
		{Sequential, false}, {Shared, true}, {Distributed, false}, {Hybrid, true},
	} {
		e := &Engine{curMode: tc.mode}
		x, err := newExecutor(e)
		if err != nil {
			t.Fatalf("%v: %v", tc.mode, err)
		}
		if x.Mode() != tc.mode || x.Teams() != tc.teams {
			t.Fatalf("%v: Mode()=%v Teams()=%v", tc.mode, x.Mode(), x.Teams())
		}
	}
	if _, err := newExecutor(&Engine{curMode: Mode(7)}); err == nil {
		t.Fatal("executor built for an unknown mode")
	}
}

func TestConfigValidation(t *testing.T) {
	mk := func(cfg Config) error {
		_, err := New(cfg, func() App { return newStencil(4, 1, &resultSink{}) })
		return err
	}
	if err := mk(Config{Mode: Mode(99)}); err == nil || !strings.Contains(err.Error(), "unknown mode") {
		t.Errorf("unknown mode accepted: %v", err)
	}
	if err := mk(Config{Mode: Shared, DeltaCheckpoint: true}); err == nil {
		t.Error("delta checkpointing without a cadence accepted")
	}
	if _, err := New(Config{}, nil); err == nil {
		t.Error("nil factory accepted")
	}
}

func TestUnknownFieldRejected(t *testing.T) {
	bad := NewModule("bad").SafeData("NoSuchField")
	sink := &resultSink{}
	eng, err := New(Config{Mode: Sequential, Modules: []*Module{bad}},
		func() App { return newStencil(4, 1, sink) })
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err == nil {
		t.Error("unknown field accepted")
	}
}

// Sequential deployment with zero modules must work: that is the
// "unplugged" base program.
func TestUnpluggedSequential(t *testing.T) {
	sink := &resultSink{}
	eng, err := New(Config{Mode: Sequential}, func() App { return newStencil(8, 3, sink) })
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if sink.get() == nil {
		t.Fatal("no result")
	}
}
