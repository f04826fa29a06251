package pp_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ppar/internal/ckpt"
	"ppar/internal/core"
	"ppar/pp"
)

// migModules is the full multi-mode module set: parallelisation advice that
// degrades gracefully under Sequential (no teams, no world) plus the
// checkpoint module. In-process migration keeps the modules plugged at New,
// so migration tests deploy the full set in every starting mode.
func migModules() []*pp.Module { return modules(pp.Shared) }

// deployMig builds a counter deployment carrying the full module set, so the
// run stays correct in whatever mode it migrates to.
func deployMig(t *testing.T, total *float64, mode pp.Mode, opts ...pp.Option) *pp.Engine {
	t.Helper()
	opts = append([]pp.Option{
		pp.WithName("pp-counter"),
		pp.WithMode(mode),
		pp.WithModules(migModules()...),
	}, opts...)
	eng, err := pp.New(func() pp.App {
		return &counter{Out: make([]float64, 120), Blocks: 6, total: total}
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// modeLegs enumerates the deployments a migration can start in or move to.
func modeLegs() []struct {
	name string
	mode pp.Mode
	opts []pp.Option
} {
	return []struct {
		name string
		mode pp.Mode
		opts []pp.Option
	}{
		{"seq", pp.Sequential, nil},
		{"smp", pp.Shared, []pp.Option{pp.WithThreads(2)}},
		{"dist", pp.Distributed, []pp.Option{pp.WithProcs(3)}},
		{"hybrid", pp.Hybrid, []pp.Option{pp.WithProcs(2), pp.WithThreads(2)}},
		{"task", pp.Task, []pp.Option{pp.WithProcs(2), pp.WithThreads(2), pp.WithOverdecompose(4)}},
	}
}

// targetFor sizes the migration target like the leg's start-up options.
func targetFor(mode pp.Mode) pp.AdaptTarget {
	switch mode {
	case pp.Shared:
		return pp.AdaptTarget{Mode: pp.Shared, Threads: 2}
	case pp.Distributed:
		return pp.AdaptTarget{Mode: pp.Distributed, Procs: 3}
	case pp.Hybrid:
		return pp.AdaptTarget{Mode: pp.Hybrid, Procs: 2, Threads: 2}
	case pp.Task:
		return pp.AdaptTarget{Mode: pp.Task, Procs: 2, Threads: 2}
	}
	return pp.AdaptTarget{Mode: pp.Sequential}
}

// TestInProcessMigrationMatrix migrates every ordered mode pair mid-run,
// inside a single Run call, and requires the result to be byte-identical to
// an unmigrated run — the acceptance criterion of the executor refactor.
func TestInProcessMigrationMatrix(t *testing.T) {
	want := run(t, pp.Sequential)
	legs := modeLegs()
	for _, from := range legs {
		for _, to := range legs {
			if to.mode == from.mode {
				continue
			}
			t.Run(from.name+"-to-"+to.name, func(t *testing.T) {
				var total float64
				eng := deployMig(t, &total, from.mode, append(append([]pp.Option{},
					from.opts...),
					pp.WithAdaptAt(3, targetFor(to.mode)))...)
				if err := eng.Run(); err != nil {
					t.Fatalf("migrated run: %v", err)
				}
				if total != want {
					t.Fatalf("migrated total=%v want %v", total, want)
				}
				rep := eng.Report()
				if rep.Migrations != 1 || !rep.Adapted {
					t.Fatalf("migration not recorded: %+v", rep)
				}
				if rep.MigrationTotal <= 0 {
					t.Fatalf("migration blocked time not recorded: %+v", rep)
				}
			})
		}
	}
}

// TestMigrationThereAndBack drives smp -> dist -> smp with one Schedule
// policy inside one Run, checking that a migrated-away run can come home.
func TestMigrationThereAndBack(t *testing.T) {
	want := run(t, pp.Sequential)
	var total float64
	eng := deployMig(t, &total, pp.Shared, pp.WithThreads(2),
		pp.WithAdaptPolicy(pp.Schedule(
			pp.AdaptStep{At: 2, Target: pp.AdaptTarget{Mode: pp.Distributed, Procs: 3}},
			pp.AdaptStep{At: 4, Target: pp.AdaptTarget{Mode: pp.Shared, Threads: 3}},
		)))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if total != want {
		t.Fatalf("total=%v want %v", total, want)
	}
	if rep := eng.Report(); rep.Migrations != 2 {
		t.Fatalf("want 2 migrations, got %+v", rep)
	}
}

// TestMigrationMatchesRestartPath pins the migration to the semantics it
// replaces: an in-process smp -> dist migration at safe point 3 must land on
// exactly the result of checkpoint-and-stop at 3 plus a dist relaunch (the
// old kill-and-restart path), which in turn equals the unmigrated run.
func TestMigrationMatchesRestartPath(t *testing.T) {
	want := run(t, pp.Sequential)

	// Old path: stop at 3 in smp, restart in dist from the snapshot.
	store := pp.NewMemStore()
	var restartTotal float64
	stopEng := deployMig(t, &restartTotal, pp.Shared, pp.WithThreads(2),
		pp.WithStore(store), pp.WithStopAt(3))
	var stopped *pp.ErrStopped
	if err := stopEng.Run(); !errors.As(err, &stopped) {
		t.Fatalf("stop run: %v", err)
	}
	restartEng := deployMig(t, &restartTotal, pp.Distributed, pp.WithProcs(3),
		pp.WithStore(store))
	if err := restartEng.Run(); err != nil {
		t.Fatalf("restart run: %v", err)
	}

	// New path: the same move without leaving Run.
	var migTotal float64
	migEng := deployMig(t, &migTotal, pp.Shared, pp.WithThreads(2),
		pp.WithAdaptAt(3, pp.AdaptTarget{Mode: pp.Distributed, Procs: 3}))
	if err := migEng.Run(); err != nil {
		t.Fatalf("migrated run: %v", err)
	}

	if restartTotal != want || migTotal != want {
		t.Fatalf("restart=%v migrate=%v want %v", restartTotal, migTotal, want)
	}
}

// TestMigrationThenKillRestartsInThirdMode kills the run after it migrated
// smp -> dist, then restarts in a THIRD mode from the regular checkpoint
// chain: the chain must have been re-based under the new executor, so the
// relaunched engine replays from a post-migration snapshot.
func TestMigrationThenKillRestartsInThirdMode(t *testing.T) {
	want := run(t, pp.Sequential)
	store := pp.NewMemStore()
	var total float64
	eng := deployMig(t, &total, pp.Shared, pp.WithThreads(2),
		pp.WithStore(store), pp.WithCheckpointEvery(2),
		pp.WithAdaptAt(3, pp.AdaptTarget{Mode: pp.Distributed, Procs: 3}),
		pp.WithFailureAt(5, 0))
	if err := eng.Run(); !errors.Is(err, pp.ErrInjectedFailure) {
		t.Fatalf("migrated+killed run: %v, want injected failure", err)
	}
	if rep := eng.Report(); rep.Migrations != 1 {
		t.Fatalf("migration before the kill not recorded: %+v", rep)
	}
	// The post-migration checkpoint at safe point 4 must be the restart
	// point, so the replay happens entirely under the third mode.
	snap, found, err := ckpt.LoadResume(store, "pp-counter")
	if err != nil || !found {
		t.Fatalf("chain after kill: found=%v err=%v", found, err)
	}
	if snap.SafePoints != 4 {
		t.Fatalf("restart point at sp %d, want the re-based post-migration checkpoint at 4", snap.SafePoints)
	}
	eng2 := deployMig(t, &total, pp.Sequential,
		pp.WithStore(store), pp.WithCheckpointEvery(2))
	if err := eng2.Run(); err != nil {
		t.Fatalf("third-mode restart: %v", err)
	}
	if !eng2.Report().Restarted {
		t.Fatal("third-mode run did not restart from the chain")
	}
	if total != want {
		t.Fatalf("recovered total=%v want %v", total, want)
	}
}

// TestMigrationViaRequestAdapt drives the migration through the
// asynchronous coordinator path instead of a deterministic policy — what a
// resource manager's immediate grant reduces to: RequestAdapt called before
// Run is noticed at the first safe point and migrates the run at the one it
// schedules next.
func TestMigrationViaRequestAdapt(t *testing.T) {
	want := run(t, pp.Sequential)
	var total float64
	var at []uint64
	eng := deployMig(t, &total, pp.Shared, pp.WithThreads(2),
		pp.WithAdaptNotify(func(sp uint64, mode pp.Mode, _, procs int) {
			if mode != pp.Distributed || procs != 3 {
				t.Errorf("landed on %v/%dP, want dist/3P", mode, procs)
			}
			at = append(at, sp)
		}))
	eng.RequestAdapt(pp.AdaptTarget{Mode: pp.Distributed, Procs: 3})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if total != want {
		t.Fatalf("total=%v want %v", total, want)
	}
	if rep := eng.Report(); rep.Migrations != 1 || len(at) != 1 || at[0] != 2 {
		t.Fatalf("migration at safe points %v, want exactly [2]: %+v", at, rep)
	}
}

// grantDriver is a resource manager outside the run: when the run starts it
// grants one target through RequestAdapt, and it records its own stop.
type grantDriver struct {
	target        pp.AdaptTarget
	drives, stops int
}

func (d *grantDriver) Drive(e *core.Engine) func() {
	d.drives++
	e.RequestAdapt(d.target)
	return func() { d.stops++ }
}

// TestMigrationViaAdaptManager drives the migration from an external
// resource manager plugged as Config.Driver: its grant fires as the run
// starts, so the coordinator schedules the executor swap at its next safe
// point, and the manager is stopped exactly once when the run ends.
func TestMigrationViaAdaptManager(t *testing.T) {
	want := run(t, pp.Sequential)
	var total float64
	mgr := &grantDriver{target: pp.AdaptTarget{Mode: pp.Distributed, Procs: 3}}
	eng := deployMig(t, &total, pp.Shared, pp.WithThreads(2),
		func(c *core.Config) { c.Driver = mgr })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if total != want {
		t.Fatalf("total=%v want %v", total, want)
	}
	if rep := eng.Report(); rep.Migrations != 1 {
		t.Fatalf("manager migration not applied: %+v", rep)
	}
	if mgr.drives != 1 || mgr.stops != 1 {
		t.Fatalf("manager driven %d times, stopped %d times, want 1 and 1", mgr.drives, mgr.stops)
	}
}

// TestMigrationPersistsDueCheckpoint pins the cadence contract: when a
// migration fires at a safe point where a periodic checkpoint is due, the
// canonical snapshot is also persisted through the regular store — the
// migration must not silently cancel a scheduled checkpoint that the
// cadence counters (and any crash before the next one) rely on.
func TestMigrationPersistsDueCheckpoint(t *testing.T) {
	want := run(t, pp.Sequential)
	store := pp.NewMemStore()
	var total float64
	eng := deployMig(t, &total, pp.Shared, pp.WithThreads(2),
		pp.WithStore(store), pp.WithCheckpointEvery(3), pp.WithMaxCheckpoints(1),
		pp.WithAdaptAt(3, pp.AdaptTarget{Mode: pp.Distributed, Procs: 3}))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if total != want {
		t.Fatalf("total=%v want %v", total, want)
	}
	if rep := eng.Report(); rep.Checkpoints != 1 {
		t.Fatalf("the due checkpoint at the migration safe point was not persisted: %+v", rep)
	}
	snap, found, err := ckpt.LoadResume(store, "pp-counter")
	if err != nil || !found {
		t.Fatalf("no canonical snapshot persisted: found=%v err=%v", found, err)
	}
	if snap.SafePoints != 3 {
		t.Fatalf("persisted checkpoint at sp %d, want the migration safe point 3", snap.SafePoints)
	}
}

// TestMigrationRemembersTopology pins size inheritance across a round trip:
// migrating smp(4) away to a world and back with Threads unset must land on
// the remembered 4-thread team, not a coerced size.
func TestMigrationRemembersTopology(t *testing.T) {
	want := run(t, pp.Sequential)
	rec := &statsRecorder{}
	var total float64
	eng := deployMig(t, &total, pp.Shared, pp.WithThreads(4),
		pp.WithAdaptPolicy(rec),
		pp.WithAdaptPolicy(pp.Schedule(
			pp.AdaptStep{At: 2, Target: pp.AdaptTarget{Mode: pp.Distributed, Procs: 3}},
			pp.AdaptStep{At: 4, Target: pp.AdaptTarget{Mode: pp.Shared}}, // Threads unset: inherit
		)))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if total != want {
		t.Fatalf("total=%v want %v", total, want)
	}
	if len(rec.diff) > 0 {
		t.Fatalf("stats diverged at safe points %v", rec.diff)
	}
	s, ok := rec.seen[5]
	if !ok {
		t.Fatal("no stats at safe point 5")
	}
	if s.Mode != pp.Shared || s.Threads != 4 {
		t.Fatalf("after the round trip: mode=%v threads=%d, want the remembered smp(4)", s.Mode, s.Threads)
	}
}

// TestPendingRequestSurvivesCollidingMigration pins the collision rule: a
// RequestStop whose scheduled safe point is taken over by a policy-driven
// migration is not dropped — the coordinator re-schedules it after the
// replay and the run still checkpoints-and-stops.
func TestPendingRequestSurvivesCollidingMigration(t *testing.T) {
	store := pp.NewMemStore()
	var total float64
	// The coordinator notices RequestStop at sp 1 and schedules it for sp 2
	// — exactly where the policy migration fires and wins.
	eng := deployMig(t, &total, pp.Shared, pp.WithThreads(2),
		pp.WithStore(store),
		pp.WithAdaptAt(2, pp.AdaptTarget{Mode: pp.Distributed, Procs: 3}))
	eng.RequestStop()
	err := eng.Run()
	var stopped *pp.ErrStopped
	if !errors.As(err, &stopped) {
		t.Fatalf("colliding RequestStop was dropped: %v", err)
	}
	if eng.Report().Migrations != 1 {
		t.Fatalf("migration did not happen first: %+v", eng.Report())
	}
	if stopped.SafePoint <= 2 {
		t.Fatalf("stopped at sp %d, want after the sp-2 migration", stopped.SafePoint)
	}
}

// TestSharedWorldResizeAbortsLoudly pins the executor contract: a Shared
// run asked to resize its (non-existent) world must abort with an error
// naming the migration path, not silently ignore the target.
func TestSharedWorldResizeAbortsLoudly(t *testing.T) {
	var total float64
	eng := deployMig(t, &total, pp.Shared, pp.WithThreads(2),
		pp.WithAdaptPolicy(pp.AdaptAt(2, pp.AdaptTarget{Procs: 4})))
	err := eng.Run()
	if err == nil || !strings.Contains(err.Error(), "AdaptTarget.Mode") {
		t.Fatalf("want a loud no-world error naming the migration path, got %v", err)
	}
}

// TestMigrationHammer races RequestStop against an async-delta-checkpointing
// run that migrates smp -> dist mid-run (run under -race in CI). Whenever
// the run stops — before, during or after the migration — the drain-before-
// stop invariant must hold for the regular chain, and a relaunched engine
// must land on the uninterrupted result.
func TestMigrationHammer(t *testing.T) {
	want := run(t, pp.Sequential)
	for i := 0; i < 10; i++ {
		t.Run(fmt.Sprintf("stop-after-%dus", 40*i), func(t *testing.T) {
			store := ckpt.NewMem()
			var total float64
			eng := deployMig(t, &total, pp.Shared, pp.WithThreads(4),
				pp.WithStore(store),
				pp.WithDeltaCheckpoint(1, 3), pp.WithAsyncCheckpoint(),
				pp.WithAdaptAt(3, pp.AdaptTarget{Mode: pp.Distributed, Procs: 3}))
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(time.Duration(40*i) * time.Microsecond)
				eng.RequestStop()
			}()
			err := eng.Run()
			wg.Wait()
			var stoppedErr *pp.ErrStopped
			switch {
			case err == nil:
				if total != want {
					t.Fatalf("completed total=%v want %v", total, want)
				}
				return
			case errors.As(err, &stoppedErr):
			default:
				t.Fatalf("run: %v", err)
			}

			snap, found, lerr := ckpt.LoadResume(store, "pp-counter")
			if lerr != nil || !found {
				t.Fatalf("chain after stop: found=%v err=%v", found, lerr)
			}
			if snap.SafePoints != stoppedErr.SafePoint {
				t.Fatalf("materialised chain at sp %d, stop snapshot at %d: drain-before-stop violated",
					snap.SafePoints, stoppedErr.SafePoint)
			}

			eng2 := deployMig(t, &total, pp.Shared, pp.WithThreads(4),
				pp.WithStore(store),
				pp.WithDeltaCheckpoint(1, 3), pp.WithAsyncCheckpoint())
			if rerr := eng2.Run(); rerr != nil {
				t.Fatalf("restart: %v", rerr)
			}
			if total != want {
				t.Fatalf("resumed total=%v want %v", total, want)
			}
		})
	}
}

// TestMigrationTargetValidation pins the run-time rejections: a target
// the engine cannot honour aborts the run when its policy fires, with a
// message naming the supported alternative, while combinations that a
// migration CAN honour run to the right result.
func TestMigrationTargetValidation(t *testing.T) {
	want := run(t, pp.Sequential)
	cases := []struct {
		name   string
		mode   pp.Mode
		opts   []pp.Option
		target pp.AdaptTarget
		abort  string // "" means the run must complete
	}{
		{"unknown-mode", pp.Shared, []pp.Option{pp.WithThreads(2)},
			pp.AdaptTarget{Mode: pp.Mode(99)}, "unknown mode"},
		{"seq-resize", pp.Sequential, nil,
			pp.AdaptTarget{Threads: 2}, "Sequential mode cannot adapt in place"},
		{"hybrid-world-resize", pp.Hybrid, []pp.Option{pp.WithProcs(2), pp.WithThreads(2)},
			pp.AdaptTarget{Procs: 4}, "not in-place world resizing"},
		{"tcp-world-resize", pp.Distributed, []pp.Option{pp.WithProcs(2), pp.WithTCP()},
			pp.AdaptTarget{Procs: 4}, "AdaptTarget.Mode"},
		{"seq-migrates", pp.Sequential, nil,
			pp.AdaptTarget{Mode: pp.Shared, Threads: 2}, ""},
		{"tcp-migrates", pp.Distributed, []pp.Option{pp.WithProcs(2), pp.WithTCP()},
			pp.AdaptTarget{Mode: pp.Shared, Threads: 2}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var total float64
			opts := append(tc.opts, pp.WithAdaptAt(2, tc.target))
			err := deployMig(t, &total, tc.mode, opts...).Run()
			switch {
			case tc.abort == "" && err != nil:
				t.Fatalf("run: %v", err)
			case tc.abort == "" && total != want:
				t.Fatalf("total=%v want %v", total, want)
			case tc.abort != "" && (err == nil || !strings.Contains(err.Error(), tc.abort)):
				t.Fatalf("want an abort containing %q, got %v", tc.abort, err)
			}
		})
	}
}

// TestAsyncWorldResizeDoesNotStrandRanks pins the asynchronous world
// resize: RequestAdapt{Procs} reaches a Distributed run while its ranks
// race apart (each block's cells belong to one rank, so the others sprint
// through their safe points with no collective in between). A rank that
// has already run past the scheduled safe point must neither strand its
// peers in the resize protocol nor feed rows from a later safe point into
// the resize. With a checkpoint cadence the request is a same-mode
// relaunch aligned to the next due checkpoint, and every cell is counted
// exactly once; without one it is refused with an error naming the
// remedy. The first hung trial fails the test.
func TestAsyncWorldResizeDoesNotStrandRanks(t *testing.T) {
	const cells, blocks = 6000, 3000
	relaunched, refused := 0, 0
	for trial := 0; trial < 20; trial++ {
		every := uint64(50 * (trial % 2))
		procs := 2 + 2*(trial/2%2)
		delay := time.Duration(trial%5) * 500 * time.Microsecond
		name := fmt.Sprintf("every %d, 3 -> %d procs after %v", every, procs, delay)
		var total float64
		opts := []pp.Option{
			pp.WithName("pp-counter"), pp.WithMode(pp.Distributed), pp.WithProcs(3),
			pp.WithModules(modules(pp.Distributed)...),
		}
		if every > 0 {
			opts = append(opts, pp.WithStore(pp.NewMemStore()), pp.WithCheckpointEvery(every))
		}
		eng, err := pp.New(func() pp.App {
			return &counter{Out: make([]float64, cells), Blocks: blocks, total: &total, bump: true}
		}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if delay == 0 {
			eng.RequestAdapt(pp.AdaptTarget{Procs: procs})
		}
		done := make(chan error, 1)
		go func() { done <- eng.Run() }()
		if delay > 0 {
			time.Sleep(delay)
			eng.RequestAdapt(pp.AdaptTarget{Procs: procs})
		}
		select {
		case err = <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: run hung after an asynchronous world resize", name)
		}
		switch {
		case err != nil && every == 0 && strings.Contains(err.Error(), "WithCheckpointEvery"):
			refused++
			continue
		case err != nil:
			t.Fatalf("%s: run: %v", name, err)
		case every == 0 && delay == 0:
			t.Fatalf("%s: a resize requested before Run without a checkpoint cadence was not refused", name)
		}
		if total != cells {
			t.Fatalf("%s: counted %v cell visits, want %d (a snapshot mixed rows from two safe points)", name, total, cells)
		}
		relaunched += eng.Report().Migrations
	}
	t.Logf("%d relaunches, %d refusals", relaunched, refused)
	if relaunched == 0 {
		t.Fatal("no trial with a checkpoint cadence saw its resize request before the run ended")
	}
	if refused == 0 {
		t.Fatal("no trial without a checkpoint cadence refused its resize request")
	}
}
