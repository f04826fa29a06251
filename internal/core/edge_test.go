package core

import (
	"errors"
	"testing"
)

// TCP transport with checkpointing: the fixed-world transport must still
// checkpoint and recover (restart-based paths only).
func TestTCPCheckpointRestart(t *testing.T) {
	dir := t.TempDir()
	ref, _ := runStencil(t, Config{Mode: Sequential})
	sink := &resultSink{}
	cfg := Config{
		Mode: Distributed, Procs: 2, TCP: true, AppName: "stencil",
		Modules:       modulesFor(Distributed),
		CheckpointDir: dir, CheckpointEvery: 4, FailAtSafePoint: 9, FailRank: 1,
	}
	factory := func() App { return newStencil(tN, tIters, sink) }
	eng, err := New(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); !errors.Is(err, ErrInjectedFailure) {
		t.Fatalf("want failure, got %v", err)
	}
	cfg.FailAtSafePoint = 0
	eng2, err := New(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Run(); err != nil {
		t.Fatal(err)
	}
	gridsEqual(t, "tcp-restart", ref, sink.get())
}

// Hybrid thread adaptation: every rank's team resizes at the same safe
// point; results unchanged.
func TestHybridThreadAdaptation(t *testing.T) {
	ref, _ := runStencil(t, Config{Mode: Sequential})
	got, rep := runStencil(t, Config{
		Mode: Hybrid, Procs: 2, Threads: 2,
		Policy: AdaptAt(6, AdaptTarget{Threads: 4}),
	})
	gridsEqual(t, "hybrid-thread-adapt", ref, got)
	if !rep.Adapted {
		t.Error("hybrid adaptation not recorded")
	}
}

// Shard checkpoints restart into a DIFFERENT world size by repartitioning
// the manifest-committed shards through their recorded layouts — the
// re-sharding restore that used to be a loud failure.
func TestShardRestartResizedWorldResharded(t *testing.T) {
	ref, _ := runStencil(t, Config{Mode: Sequential})
	dir := t.TempDir()
	sink := &resultSink{}
	factory := func() App { return newStencil(tN, tIters, sink) }
	cfg := Config{
		Mode: Distributed, Procs: 3, AppName: "stencil",
		Modules:          modulesFor(Distributed),
		CheckpointDir:    dir,
		CheckpointEvery:  4,
		ShardCheckpoints: true,
		FailAtSafePoint:  9,
	}
	eng, _ := New(cfg, factory)
	if err := eng.Run(); !errors.Is(err, ErrInjectedFailure) {
		t.Fatalf("want failure, got %v", err)
	}
	wider := cfg
	wider.FailAtSafePoint = 0
	wider.Procs = 5
	eng2, err := New(wider, factory)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Run(); err != nil {
		t.Fatalf("widened shard restart: %v", err)
	}
	if !eng2.Report().Restarted {
		t.Error("widened shard restart not recorded as a restart")
	}
	gridsEqual(t, "resharded-restart", ref, sink.get())
}

// Back-to-back adaptations: grow then shrink in one run via the request
// queue.
func TestSequentialAdaptations(t *testing.T) {
	ref, _ := runStencil(t, Config{Mode: Sequential})
	sink := &resultSink{}
	cfg := Config{Mode: Shared, Threads: 2, AppName: "stencil", Modules: modulesFor(Shared)}
	eng, err := New(cfg, func() App { return newStencil(tN, tIters, sink) })
	if err != nil {
		t.Fatal(err)
	}
	eng.RequestAdapt(AdaptTarget{Threads: 4})
	go func() {
		// A second request lands while the run progresses; it is applied
		// at a later safe point (or harmlessly missed on a fast run).
		eng.RequestAdapt(AdaptTarget{Threads: 3})
	}()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	gridsEqual(t, "requeued-adaptations", ref, sink.get())
}

// A second run after a clean finish must NOT replay (ledger cleared).
func TestCleanFinishClearsLedger(t *testing.T) {
	dir := t.TempDir()
	sink := &resultSink{}
	cfg := Config{
		Mode: Sequential, AppName: "stencil", Modules: modulesFor(Sequential),
		CheckpointDir: dir, CheckpointEvery: 4,
	}
	factory := func() App { return newStencil(tN, tIters, sink) }
	eng, _ := New(cfg, factory)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	eng2, _ := New(cfg, factory)
	if err := eng2.Run(); err != nil {
		t.Fatal(err)
	}
	if eng2.Report().Restarted {
		t.Error("clean second run replayed from a stale checkpoint")
	}
}

// Failure during the replay of a restart (double failure) recovers on the
// third run.
func TestDoubleFailure(t *testing.T) {
	ref, _ := runStencil(t, Config{Mode: Sequential})
	dir := t.TempDir()
	sink := &resultSink{}
	factory := func() App { return newStencil(tN, tIters, sink) }
	cfg := Config{
		Mode: Sequential, AppName: "stencil", Modules: modulesFor(Sequential),
		CheckpointDir: dir, CheckpointEvery: 4, FailAtSafePoint: 9,
	}
	eng, _ := New(cfg, factory)
	if err := eng.Run(); !errors.Is(err, ErrInjectedFailure) {
		t.Fatalf("first failure missing: %v", err)
	}
	// Second run fails again AFTER the replayed region (safe point 11 of
	// live execution resumes after loading sp 8).
	cfg.FailAtSafePoint = 11
	eng2, _ := New(cfg, factory)
	if err := eng2.Run(); !errors.Is(err, ErrInjectedFailure) {
		t.Fatalf("second failure missing: %v", err)
	}
	cfg.FailAtSafePoint = 0
	eng3, _ := New(cfg, factory)
	if err := eng3.Run(); err != nil {
		t.Fatal(err)
	}
	gridsEqual(t, "double-failure", ref, sink.get())
}

// Checkpoints remain valid when taken after an adaptation changed the
// world: the canonical snapshot is mode-independent.
func TestCheckpointAfterAdaptation(t *testing.T) {
	ref, _ := runStencil(t, Config{Mode: Sequential})
	dir := t.TempDir()
	sink := &resultSink{}
	factory := func() App { return newStencil(tN, tIters, sink) }
	cfg := Config{
		Mode: Distributed, Procs: 2, AppName: "stencil",
		Modules:         modulesFor(Distributed),
		CheckpointDir:   dir,
		CheckpointEvery: 4, // checkpoints at 4 and 8 bracket the adaptation
		Policy:          AdaptAt(6, AdaptTarget{Procs: 4}),
		FailAtSafePoint: 10,
	}
	eng, _ := New(cfg, factory)
	if err := eng.Run(); !errors.Is(err, ErrInjectedFailure) {
		t.Fatalf("failure missing: %v", err)
	}
	// Recover on yet another world size from the post-adaptation snapshot.
	rec := cfg
	rec.FailAtSafePoint = 0
	rec.Policy = nil
	rec.Procs = 3
	eng2, err := New(rec, factory)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Run(); err != nil {
		t.Fatal(err)
	}
	gridsEqual(t, "ckpt-after-adapt", ref, sink.get())
}
