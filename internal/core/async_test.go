package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"ppar/internal/ckpt"
	"ppar/internal/serial"
)

// slowStore delays every canonical save, so captures pile up behind the
// in-flight write and the double-buffer backpressure paths are exercised.
type slowStore struct {
	ckpt.Store
	delay time.Duration
}

func (s *slowStore) Save(snap *serial.Snapshot) error {
	time.Sleep(s.delay)
	return s.Store.Save(snap)
}

// failStore fails every canonical save after the first, so the run has one
// good restart point and a surfaced write error.
type failStore struct {
	ckpt.Store
	saves    int
	failFrom int
}

func (s *failStore) Save(snap *serial.Snapshot) error {
	s.saves++
	if s.saves >= s.failFrom {
		return errors.New("backend gone")
	}
	return s.Store.Save(snap)
}

// Async checkpointing must not change results in any mode, and the drain at
// engine exit must leave the last capture persisted.
func TestAsyncCheckpointMatchesSync(t *testing.T) {
	ref, _ := runStencil(t, Config{Mode: Sequential})
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"seq", Config{Mode: Sequential}},
		{"smp", Config{Mode: Shared, Threads: 3}},
		{"dist", Config{Mode: Distributed, Procs: 3}},
		{"hybrid", Config{Mode: Hybrid, Procs: 2, Threads: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := ckpt.NewMem()
			cfg := tc.cfg
			cfg.Store = store
			cfg.CheckpointEvery = 4
			cfg.AsyncCheckpoint = true
			g, rep := runStencil(t, cfg)
			gridsEqual(t, tc.name, ref, g)
			if rep.Checkpoints == 0 {
				t.Fatal("no checkpoints persisted")
			}
			snap, found, err := store.Load("stencil")
			if err != nil || !found {
				t.Fatalf("drained snapshot: found=%v err=%v", found, err)
			}
			if snap.SafePoints != 12 { // tIters safe points, last multiple of 4
				t.Fatalf("last persisted snapshot at sp %d, want 12", snap.SafePoints)
			}
		})
	}
}

// With a writer slower than the inter-checkpoint interval, captures must
// supersede the parked snapshot instead of queueing unboundedly, and the
// exit drain must still persist the newest capture.
func TestAsyncSupersedeAndDrainOnExit(t *testing.T) {
	store := &slowStore{Store: ckpt.NewMem(), delay: 30 * time.Millisecond}
	cfg := Config{Mode: Sequential, Store: store, CheckpointEvery: 1, AsyncCheckpoint: true}
	_, rep := runStencil(t, cfg)
	if rep.Superseded == 0 {
		t.Fatalf("no capture superseded despite a slow writer: %+v", rep)
	}
	if rep.Checkpoints >= int(rep.SafePoints) {
		t.Fatalf("all %d captures persisted; backpressure did not coalesce", rep.SafePoints)
	}
	snap, found, err := store.Load("stencil")
	if err != nil || !found {
		t.Fatalf("found=%v err=%v", found, err)
	}
	if snap.SafePoints != 12 {
		t.Fatalf("exit drain persisted sp %d, want the final capture at 12", snap.SafePoints)
	}
	if rep.DrainTotal == 0 {
		t.Error("drain time not recorded")
	}
}

// A background write failure must fail the run (at a later safe point or at
// exit), never be dropped.
func TestAsyncWriteErrorSurfaces(t *testing.T) {
	store := &failStore{Store: ckpt.NewMem(), failFrom: 1}
	cfg := Config{Mode: Sequential, AppName: "stencil", Store: store,
		CheckpointEvery: 2, AsyncCheckpoint: true, Modules: modulesFor(Sequential)}
	eng, err := New(cfg, func() App { return newStencil(tN, tIters, &resultSink{}) })
	if err != nil {
		t.Fatal(err)
	}
	err = eng.Run()
	if err == nil {
		t.Fatal("run succeeded despite every checkpoint write failing")
	}
	if !strings.Contains(err.Error(), "async checkpoint write failed") {
		t.Fatalf("error does not identify the async write: %v", err)
	}
}

// Crash-restart with async checkpointing: the failure leaves the ledger
// dirty while the exit drain persists the last capture, and the relaunched
// engine replays to exactly the uninterrupted result.
func TestAsyncCrashRestartEquivalence(t *testing.T) {
	ref, _ := runStencil(t, Config{Mode: Sequential})
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"seq", Config{Mode: Sequential}},
		{"smp", Config{Mode: Shared, Threads: 3}},
		{"dist", Config{Mode: Distributed, Procs: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := &resultSink{}
			cfg := tc.cfg
			cfg.AppName = "stencil"
			cfg.Modules = modulesFor(cfg.Mode)
			cfg.CheckpointDir = t.TempDir()
			cfg.CheckpointEvery = 4
			cfg.AsyncCheckpoint = true
			cfg.FailAtSafePoint = 9 // the sp-8 capture may still be in flight

			eng, err := New(cfg, func() App { return newStencil(tN, tIters, sink) })
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Run(); !errors.Is(err, ErrInjectedFailure) {
				t.Fatalf("first run: %v, want injected failure", err)
			}

			cfg2 := cfg
			cfg2.FailAtSafePoint = 0
			eng2, err := New(cfg2, func() App { return newStencil(tN, tIters, sink) })
			if err != nil {
				t.Fatal(err)
			}
			if err := eng2.Run(); err != nil {
				t.Fatalf("restart run: %v", err)
			}
			if !eng2.Report().Restarted {
				t.Error("restart not recorded")
			}
			gridsEqual(t, tc.name, ref, sink.get())
		})
	}
}

// Checkpoint-and-stop under async checkpointing: the stop snapshot must be
// synchronous and must not be overwritten by an older in-flight capture, so
// the restarted run resumes from exactly the stop point.
func TestAsyncStopSnapshotSynchronous(t *testing.T) {
	inner := ckpt.NewMem()
	store := &slowStore{Store: inner, delay: 20 * time.Millisecond}
	sink := &resultSink{}
	cfg := Config{
		Mode: Shared, Threads: 2, AppName: "stencil",
		Modules: modulesFor(Shared),
		Store:   store, CheckpointEvery: 2, AsyncCheckpoint: true,
		Policy: StopAt(7),
	}
	eng, err := New(cfg, func() App { return newStencil(tN, tIters, sink) })
	if err != nil {
		t.Fatal(err)
	}
	var stopped *ErrStopped
	if err := eng.Run(); !errors.As(err, &stopped) {
		t.Fatalf("run: %v, want ErrStopped", err)
	}
	snap, found, err := inner.Load("stencil")
	if err != nil || !found {
		t.Fatalf("stop snapshot: found=%v err=%v", found, err)
	}
	if snap.SafePoints != 7 {
		t.Fatalf("persisted snapshot at sp %d, want the stop point 7", snap.SafePoints)
	}

	ref, _ := runStencil(t, Config{Mode: Sequential})
	cfg2 := cfg
	cfg2.Policy = nil
	eng2, err := New(cfg2, func() App { return newStencil(tN, tIters, sink) })
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Run(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	gridsEqual(t, "stop-restart", ref, sink.get())
}

// Async now composes with the shard protocol: per-rank captures persist
// through the bounded background pool, the manifest commits each complete
// wave, and a crash restart lands on the uninterrupted result.
func TestAsyncShardsCompose(t *testing.T) {
	ref, _ := runStencil(t, Config{Mode: Sequential})
	sink := &resultSink{}
	store := ckpt.NewMem()
	cfg := Config{
		Mode: Distributed, Procs: 2, AppName: "stencil",
		Modules: modulesFor(Distributed),
		Store:   store, CheckpointEvery: 3,
		ShardCheckpoints: true, AsyncCheckpoint: true,
		FailAtSafePoint: 8,
	}
	eng, err := New(cfg, func() App { return newStencil(tN, tIters, sink) })
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); !errors.Is(err, ErrInjectedFailure) {
		t.Fatalf("want injected failure, got %v", err)
	}
	if rep := eng.Report(); rep.Checkpoints == 0 || rep.ShardSaves != rep.Checkpoints*2 {
		t.Fatalf("shard wave accounting off: %+v", rep)
	}
	cfg2 := cfg
	cfg2.FailAtSafePoint = 0
	eng2, err := New(cfg2, func() App { return newStencil(tN, tIters, sink) })
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Run(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	gridsEqual(t, "async-shard-restart", ref, sink.get())
}
