package pp_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"ppar/pp"
)

// counter is a complete miniature application written against the public
// API only: it accumulates i² over a partitioned range, with a safe point
// per block.
type counter struct {
	Out    []float64
	Blocks int

	total *float64
	// bump makes every cell count its visits (Out[i] += 1) instead of
	// writing i*i: a snapshot that mixes rows from two safe points then
	// shows in the total, because the replayed cells count twice.
	bump bool
}

func (c *counter) Main(ctx *pp.Ctx) {
	ctx.Call("run", c.run)
	ctx.Call("report", func(ctx *pp.Ctx) {
		sum := 0.0
		for _, v := range c.Out {
			sum += v
		}
		*c.total = sum
	})
}

func (c *counter) run(ctx *pp.Ctx) {
	n := len(c.Out)
	per := n / c.Blocks
	for b := 0; b < c.Blocks; b++ {
		lo, hi := b*per, (b+1)*per
		if b == c.Blocks-1 {
			hi = n
		}
		pp.ForSpan(ctx, "cells", lo, hi, func(a, z int) {
			for i := a; i < z; i++ {
				if c.bump {
					c.Out[i]++
				} else {
					c.Out[i] = float64(i) * float64(i)
				}
			}
		})
		ctx.Call("block", func(*pp.Ctx) {})
	}
}

func modules(mode pp.Mode) []*pp.Module {
	par := pp.NewModule("counter/par").
		ParallelMethod("run").
		PartitionedField("Out", pp.Block).
		LoopPartition("cells", "Out").
		GatherAfter("run", "Out").
		OnMaster("report").
		LoopSchedule("cells", pp.Dynamic, 8)
	ck := pp.NewModule("counter/ckpt").
		SafeData("Out").
		SafePointAfter("block")
	if mode == pp.Sequential {
		return []*pp.Module{ck}
	}
	return []*pp.Module{par, ck}
}

// deploy builds the counter deployment from functional options, appending
// the mode's modules and a stable name.
func deploy(t *testing.T, total *float64, mode pp.Mode, opts ...pp.Option) *pp.Engine {
	t.Helper()
	opts = append([]pp.Option{
		pp.WithName("pp-counter"),
		pp.WithMode(mode),
		pp.WithModules(modules(mode)...),
	}, opts...)
	eng, err := pp.New(func() pp.App {
		return &counter{Out: make([]float64, 120), Blocks: 6, total: total}
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func run(t *testing.T, mode pp.Mode, opts ...pp.Option) float64 {
	t.Helper()
	var total float64
	eng := deploy(t, &total, mode, opts...)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return total
}

func wantTotal() float64 {
	want := 0.0
	for i := 0; i < 120; i++ {
		want += float64(i) * float64(i)
	}
	return want
}

func TestPublicAPIAcrossModes(t *testing.T) {
	want := wantTotal()
	for _, d := range []struct {
		mode pp.Mode
		opts []pp.Option
	}{
		{pp.Sequential, nil},
		{pp.Shared, []pp.Option{pp.WithThreads(3)}},
		{pp.Distributed, []pp.Option{pp.WithProcs(4)}},
		{pp.Hybrid, []pp.Option{pp.WithProcs(2), pp.WithThreads(2)}},
		{pp.Task, []pp.Option{pp.WithProcs(2), pp.WithThreads(2)}},
		{pp.Task, []pp.Option{pp.WithThreads(4), pp.WithOverdecompose(3)}},
	} {
		if got := run(t, d.mode, d.opts...); got != want {
			t.Errorf("%v: total=%v want %v", d.mode, got, want)
		}
	}
}

func TestPublicAPIFailureRecovery(t *testing.T) {
	want := run(t, pp.Sequential)
	dir := t.TempDir()
	var total float64
	eng := deploy(t, &total, pp.Distributed, pp.WithProcs(3),
		pp.WithCheckpointDir(dir), pp.WithCheckpointEvery(2),
		pp.WithFailureAt(5, 0))
	if err := eng.Run(); !errors.Is(err, pp.ErrInjectedFailure) {
		t.Fatalf("want injected failure, got %v", err)
	}
	eng2 := deploy(t, &total, pp.Distributed, pp.WithProcs(3),
		pp.WithCheckpointDir(dir), pp.WithCheckpointEvery(2))
	if err := eng2.Run(); err != nil {
		t.Fatal(err)
	}
	if total != want {
		t.Fatalf("recovered total=%v want %v", total, want)
	}
}

func TestPublicAPIAdaptation(t *testing.T) {
	want := run(t, pp.Sequential)
	got := run(t, pp.Shared, pp.WithThreads(2),
		pp.WithAdaptAt(3, pp.AdaptTarget{Threads: 4}))
	if got != want {
		t.Fatalf("adapted total=%v want %v", got, want)
	}
}

func TestPublicAPIAdaptPolicy(t *testing.T) {
	want := run(t, pp.Sequential)
	var eng *pp.Engine
	got := func() float64 {
		var total float64
		eng = deploy(t, &total, pp.Shared, pp.WithThreads(2),
			pp.WithAdaptPolicy(pp.Schedule(
				pp.AdaptStep{At: 2, Target: pp.AdaptTarget{Threads: 4}},
				pp.AdaptStep{At: 4, Target: pp.AdaptTarget{Threads: 2}},
			)))
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return total
	}()
	if got != want {
		t.Fatalf("adapted total=%v want %v", got, want)
	}
	if !eng.Report().Adapted {
		t.Fatal("schedule policy did not adapt")
	}
}

func TestChainedAdaptSugar(t *testing.T) {
	// Repeated WithAdaptAt calls chain: both reshapings fire.
	want := run(t, pp.Sequential)
	var total float64
	eng := deploy(t, &total, pp.Shared, pp.WithThreads(2),
		pp.WithAdaptAt(2, pp.AdaptTarget{Threads: 4}),
		pp.WithAdaptAt(4, pp.AdaptTarget{Threads: 2}))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !eng.Report().Adapted {
		t.Fatal("chained WithAdaptAt did not adapt")
	}
	if total != want {
		t.Fatalf("total=%v want %v", total, want)
	}
}

func TestSequentialAdaptPolicyAbortsLoudly(t *testing.T) {
	// A policy requesting an adaptation that Sequential mode cannot honour
	// must abort the run with a descriptive error, not silently no-op.
	var total float64
	eng := deploy(t, &total, pp.Sequential,
		pp.WithAdaptPolicy(pp.AdaptAt(2, pp.AdaptTarget{Threads: 4})))
	err := eng.Run()
	if err == nil || !strings.Contains(err.Error(), "Sequential mode cannot adapt") {
		t.Fatalf("want a loud Sequential-cannot-adapt error, got %v", err)
	}
}

func TestPublicAPIReductions(t *testing.T) {
	var got float64
	mod := pp.NewModule("red").ParallelMethod("run")
	eng, err := pp.New(func() pp.App { return &sumApp{out: &got} },
		pp.WithName("pp-red"), pp.WithMode(pp.Shared), pp.WithThreads(4),
		pp.WithModules(mod))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 4 {
		t.Fatalf("SumAll over 4 threads = %v, want 4", got)
	}
}

type sumApp struct{ out *float64 }

func (a *sumApp) Main(ctx *pp.Ctx) {
	ctx.Call("run", func(c *pp.Ctx) {
		s := pp.SumAll(c, 1)
		if c.IsMasterThread() {
			*a.out = s
		}
	})
}

func TestRunContextCancelStopsAndResumes(t *testing.T) {
	want := run(t, pp.Sequential)
	store := pp.NewMemStore()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the run: stop at the first scheduled safe point
	var total float64
	eng := deploy(t, &total, pp.Shared, pp.WithThreads(2), pp.WithStore(store))
	err := eng.RunContext(ctx)
	var stopped *pp.ErrStopped
	if !errors.As(err, &stopped) {
		t.Fatalf("want ErrStopped, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("stop error does not wrap the context cause: %v", err)
	}
	if sp := stopped.SafePoint; sp == 0 || sp >= 6 {
		t.Fatalf("stopped at safe point %d, want an early one", sp)
	}

	// Relaunch (any mode): replays from the snapshot and completes.
	eng2 := deploy(t, &total, pp.Shared, pp.WithThreads(4), pp.WithStore(store))
	if err := eng2.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if total != want {
		t.Fatalf("resumed total=%v want %v", total, want)
	}
	if !eng2.Report().Restarted {
		t.Fatal("second run did not restart from the snapshot")
	}
}

func TestRunContextCancelWithoutStore(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var total float64
	eng := deploy(t, &total, pp.Sequential)
	err := eng.RunContext(ctx)
	var stopped *pp.ErrStopped
	if !errors.As(err, &stopped) {
		t.Fatalf("want graceful stop without a store, got %v", err)
	}
}

func TestRequestStop(t *testing.T) {
	store := pp.NewMemStore()
	var total float64
	eng := deploy(t, &total, pp.Shared, pp.WithThreads(2), pp.WithStore(store))
	eng.RequestStop() // before the run: honoured at the first scheduled safe point
	err := eng.Run()
	var stopped *pp.ErrStopped
	if !errors.As(err, &stopped) {
		t.Fatalf("want ErrStopped, got %v", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatal("RequestStop must not report a context cause")
	}
}

// The asynchronous pipeline through the public API: captures overlap
// computation, the writer drains at exit, and crash recovery still lands on
// the uninterrupted result.
func TestPublicAPIAsyncCheckpoint(t *testing.T) {
	want := run(t, pp.Sequential)
	dir := t.TempDir()
	var total float64
	eng := deploy(t, &total, pp.Shared, pp.WithThreads(3),
		pp.WithCheckpointDir(dir), pp.WithCheckpointEvery(2),
		pp.WithAsyncCheckpoint(), pp.WithFailureAt(5, 0))
	if err := eng.Run(); !errors.Is(err, pp.ErrInjectedFailure) {
		t.Fatalf("want injected failure, got %v", err)
	}
	if eng.Report().Checkpoints == 0 {
		t.Fatal("no checkpoint persisted before the failure")
	}
	eng2 := deploy(t, &total, pp.Shared, pp.WithThreads(3),
		pp.WithCheckpointDir(dir), pp.WithCheckpointEvery(2),
		pp.WithAsyncCheckpoint())
	if err := eng2.Run(); err != nil {
		t.Fatal(err)
	}
	if total != want {
		t.Fatalf("recovered total=%v want %v", total, want)
	}
	if !eng2.Report().Restarted {
		t.Fatal("restart not recorded")
	}
}

// Shard checkpoints compose with the asynchronous pipeline (the former
// configuration error): per-rank captures persist through the background
// pool and restart lands on the uninterrupted result. The deeper coverage
// lives in shard_test.go; this pins the construction path.
func TestAsyncShardConfigComposes(t *testing.T) {
	want := run(t, pp.Sequential)
	store := pp.NewMemStore()
	var total float64
	eng := deploy(t, &total, pp.Distributed, pp.WithProcs(2),
		pp.WithStore(store), pp.WithCheckpointEvery(2),
		pp.WithShardCheckpoints(), pp.WithAsyncCheckpoint(),
		pp.WithFailureAt(5, 0))
	if err := eng.Run(); !errors.Is(err, pp.ErrInjectedFailure) {
		t.Fatalf("want injected failure, got %v", err)
	}
	eng2 := deploy(t, &total, pp.Distributed, pp.WithProcs(2),
		pp.WithStore(store), pp.WithCheckpointEvery(2),
		pp.WithShardCheckpoints(), pp.WithAsyncCheckpoint())
	if err := eng2.Run(); err != nil {
		t.Fatal(err)
	}
	if total != want {
		t.Fatalf("recovered total=%v want %v", total, want)
	}
}
