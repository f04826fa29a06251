// Package figures regenerates every figure of the paper's evaluation
// section (§V, Figures 3–9). Each figure has two generators:
//
//   - Model: the calibrated analytic model at the paper's scale (2000×2000
//     grid, 100 iterations, up to 32 processes on the two-machine cluster).
//     This is the default — the reproduction container typically has a
//     single core, so wall-clock scaling cannot be observed directly.
//   - Real: the actual engine running a scaled-down workload, measuring
//     real protocol costs (checkpoint saves, replays, adaptations). Real
//     generators exercise every code path the figure is about.
//
// The table each generator returns has the same rows/series as the paper's
// figure; cmd/ppbench prints them side by side.
package figures

import (
	"fmt"
	"time"

	"ppar/internal/ckpt"
	"ppar/internal/cluster"
	"ppar/internal/core"
	"ppar/internal/jgf"
	"ppar/internal/jgf/invasive"
	"ppar/internal/jgf/refimpl"
	"ppar/internal/metrics"
	"ppar/internal/perfmodel"
)

// Paper-scale workload (JGF SOR size C-ish, as §V uses).
const (
	paperN     = 2000
	paperIters = 100
)

// RealScale is the scaled-down workload for real runs.
type RealScale struct {
	N     int
	Iters int
	// MaxPE caps the environment list (goroutine worlds beyond the host's
	// cores still execute correctly, just without wall-clock speedup).
	MaxPE int
	Dir   string // checkpoint directory (used when Store is nil)
	// Store, when non-nil, is the checkpoint backend used instead of a
	// filesystem store in Dir (the ppbench -store flag plugs in the
	// in-memory or gzip store here).
	Store ckpt.Store
	// Async selects the asynchronous double-buffered checkpoint pipeline
	// for the checkpointing runs (the ppbench -async flag).
	Async bool
	// Delta selects incremental (delta) checkpointing for the
	// checkpointing runs (the ppbench -delta flag); chains compact every 8
	// deltas.
	Delta bool
	// Shards selects per-rank shard checkpoints for the distributed
	// checkpointing runs (the ppbench -shards flag); composes with Async
	// and Delta.
	Shards bool
}

// DefaultRealScale suits a small container.
func DefaultRealScale(dir string) RealScale {
	return RealScale{N: 400, Iters: 60, MaxPE: 8, Dir: dir}
}

// environments is the x-axis of Figures 3–5: sequential, 2–16 threads
// ("LE"), 2–32 processes ("P").
type env struct {
	label string
	pe    int
	dist  bool
}

func paperEnvs() []env {
	return []env{
		{"seq", 1, false},
		{"2 LE", 2, false}, {"4 LE", 4, false}, {"8 LE", 8, false}, {"16 LE", 16, false},
		{"2 P", 2, true}, {"4 P", 4, true}, {"8 P", 8, true}, {"16 P", 16, true}, {"32 P", 32, true},
	}
}

func realEnvs(maxPE int) []env {
	out := []env{{"seq", 1, false}}
	for _, pe := range []int{2, 4, 8, 16} {
		if pe <= maxPE {
			out = append(out, env{fmt.Sprintf("%d LE", pe), pe, false})
		}
	}
	for _, pe := range []int{2, 4, 8, 16, 32} {
		if pe <= maxPE {
			out = append(out, env{fmt.Sprintf("%d P", pe), pe, true})
		}
	}
	return out
}

func cfgFor(e env, scale RealScale, withCkpt bool, every uint64, maxCkpt int) core.Config {
	cfg := core.Config{AppName: "fig-sor"}
	switch {
	case e.pe == 1:
		cfg.Mode = core.Sequential
	case e.dist:
		cfg.Mode = core.Distributed
		cfg.Procs = e.pe
	default:
		cfg.Mode = core.Shared
		cfg.Threads = e.pe
	}
	if withCkpt {
		cfg.Modules = jgf.SORModules(cfg.Mode)
		cfg.Store = scale.Store
		cfg.CheckpointDir = scale.Dir
		cfg.CheckpointEvery = every
		cfg.MaxCheckpoints = maxCkpt
		cfg.AsyncCheckpoint = scale.Async
		cfg.DeltaCheckpoint = scale.Delta
		cfg.ShardCheckpoints = scale.Shards && cfg.Mode == core.Distributed
	} else {
		// "Original": parallelisation only, no checkpoint module.
		switch cfg.Mode {
		case core.Shared:
			cfg.Modules = []*core.Module{jgf.SORSharedModule()}
		case core.Distributed:
			cfg.Modules = []*core.Module{jgf.SORDistModule()}
		}
	}
	return cfg
}

// runReal executes one real SOR deployment and returns its report.
func runReal(cfg core.Config, n, iters int) (core.Report, float64, error) {
	res := &jgf.SORResult{}
	eng, err := core.New(cfg, func() core.App { return jgf.NewSOR(n, iters, res) })
	if err != nil {
		return core.Report{}, 0, err
	}
	if err := eng.Run(); err != nil {
		return core.Report{}, 0, err
	}
	return eng.Report(), res.Gtotal, nil
}

// Fig3Model regenerates "Checkpoint overhead" at paper scale.
func Fig3Model() *metrics.Table {
	m := perfmodel.Paper()
	t := metrics.NewTable(
		"Figure 3 — Checkpoint overhead (modelled, 2000x2000, 100 iterations)",
		"environment", "original", "ckpt-0 (counting)", "ckpt-1 (counting+save)", "count-overhead")
	bytes := paperN * paperN * 8
	for _, e := range paperEnvs() {
		orig := m.SORTime(paperN, paperIters, e.pe, e.dist, false)
		counted := m.SORTime(paperN, paperIters, e.pe, e.dist, true)
		withSave := counted + m.SaveTime(bytes, e.pe, e.dist)
		t.AddRow(e.label, orig, counted, withSave,
			fmt.Sprintf("%.3f%%", 100*float64(counted-orig)/float64(orig)))
	}
	return t
}

// Fig3Real measures original vs invasive vs pluggable checkpointing on the
// real engine at reduced scale.
func Fig3Real(scale RealScale) (*metrics.Table, error) {
	t := metrics.NewTable(
		fmt.Sprintf("Figure 3 — Checkpoint overhead (real, %dx%d, %d iterations)", scale.N, scale.N, scale.Iters),
		"environment", "original", "pluggable ckpt-0", "pluggable ckpt-1", "invasive ckpt-1")
	for _, e := range realEnvs(scale.MaxPE) {
		orig, _, err := runReal(cfgFor(e, scale, false, 0, 0), scale.N, scale.Iters)
		if err != nil {
			return nil, fmt.Errorf("fig3 %s original: %w", e.label, err)
		}
		ck0, _, err := runReal(cfgFor(e, scale, true, 0, 0), scale.N, scale.Iters)
		if err != nil {
			return nil, fmt.Errorf("fig3 %s ckpt-0: %w", e.label, err)
		}
		ck1, _, err := runReal(cfgFor(e, scale, true, uint64(scale.Iters/2), 1), scale.N, scale.Iters)
		if err != nil {
			return nil, fmt.Errorf("fig3 %s ckpt-1: %w", e.label, err)
		}
		invCell := "-"
		if e.pe == 1 {
			inv := invasive.New(scale.N, scale.Iters)
			if err := inv.EnableCheckpoints(scale.Dir, uint64(scale.Iters/2), 1); err != nil {
				return nil, err
			}
			start := time.Now()
			if err := inv.Run(); err != nil {
				return nil, err
			}
			invCell = fmt.Sprintf("%.3fms", float64(time.Since(start).Microseconds())/1000)
			inv.RemoveCheckpoint()
		}
		t.AddRow(e.label, orig.Elapsed, ck0.Elapsed, ck1.Elapsed, invCell)
	}
	return t, nil
}

// Fig4Model regenerates "Time to save checkpoint data".
func Fig4Model() *metrics.Table {
	m := perfmodel.Paper()
	t := metrics.NewTable(
		"Figure 4 — Time to save checkpoint data (modelled, 32 MB grid)",
		"environment", "save time")
	bytes := paperN * paperN * 8
	for _, e := range paperEnvs() {
		t.AddRow(e.label, m.SaveTime(bytes, e.pe, e.dist))
	}
	return t
}

// Fig4Real measures the save protocols on the real engine. The "blocked"
// column is the time lines of execution stood at the save barrier — with
// the asynchronous pipeline it covers only the double-buffer capture, and
// the encode+persist moves to the overlapped "background" column (plus the
// exit drain).
// With the incremental pipeline (RealScale.Delta) the saves/full/delta
// split and cumulative delta bytes appear in the last three columns; the
// delta runs checkpoint frequently (instead of the paper's single mid-run
// save, whose only capture would always be the full chain base) so the
// chain actually carries deltas.
func Fig4Real(scale RealScale) (*metrics.Table, error) {
	every, maxCkpt := uint64(scale.Iters/2), 1
	if scale.Delta {
		if every = uint64(scale.Iters / 8); every == 0 {
			every = 1
		}
		maxCkpt = 0
	}
	t := metrics.NewTable(
		fmt.Sprintf("Figure 4 — Time to save checkpoint data (real, %d KB grid)", scale.N*scale.N*8/1024),
		"environment", "blocked", "background", "drain", "bytes", "full-saves", "delta-saves", "delta-bytes")
	for _, e := range realEnvs(scale.MaxPE) {
		rep, _, err := runReal(cfgFor(e, scale, true, every, maxCkpt), scale.N, scale.Iters)
		if err != nil {
			return nil, fmt.Errorf("fig4 %s: %w", e.label, err)
		}
		t.AddRow(e.label, rep.SaveTotal, rep.AsyncSaveTotal, rep.DrainTotal, rep.SaveBytes,
			rep.FullSaves, rep.DeltaSaves, rep.DeltaBytes)
	}
	return t, nil
}

// Fig5Model regenerates "Restart overhead" (failure after 100 safe points).
func Fig5Model() *metrics.Table {
	m := perfmodel.Paper()
	t := metrics.NewTable(
		"Figure 5 — Restart overhead after failure at 100 safe points (modelled)",
		"environment", "replay", "load", "total")
	bytes := paperN * paperN * 8
	for _, e := range paperEnvs() {
		replay, load := m.RestartTime(bytes, 100, e.pe, e.dist)
		t.AddRow(e.label, replay, load, replay+load)
	}
	return t
}

// Fig5Real injects a failure and measures the real replay/load split.
func Fig5Real(scale RealScale) (*metrics.Table, error) {
	t := metrics.NewTable(
		"Figure 5 — Restart overhead (real)",
		"environment", "replay", "load")
	failAt := uint64(scale.Iters - 5)
	for _, e := range realEnvs(scale.MaxPE) {
		cfg := cfgFor(e, scale, true, failAt-5, 1)
		cfg.FailAtSafePoint = failAt
		if _, _, err := runReal(cfg, scale.N, scale.Iters); err == nil {
			return nil, fmt.Errorf("fig5 %s: failure did not fire", e.label)
		}
		cfg.FailAtSafePoint = 0
		rep, _, err := runReal(cfg, scale.N, scale.Iters)
		if err != nil {
			return nil, fmt.Errorf("fig5 %s restart: %w", e.label, err)
		}
		t.AddRow(e.label, rep.ReplayTime, rep.LoadTotal)
	}
	return t, nil
}

// Fig6Model regenerates "Application restart increasing more resources":
// per-iteration time, 2 P restarted as 8 P at iteration 26.
func Fig6Model() *metrics.Table {
	m := perfmodel.Paper()
	t := metrics.NewTable(
		"Figure 6 — Per-iteration time: 2 P, restarted on 8 P at iteration 26 (modelled)",
		"iteration", "time/iter")
	t2 := m.SweepTime(paperN, 2, true)
	t8 := m.SweepTime(paperN, 8, true)
	bytes := paperN * paperN * 8
	for it := 1; it <= paperIters; it++ {
		switch {
		case it < 26:
			t.AddRow(it, t2)
		case it == 26:
			replay, load := m.RestartTime(bytes, 26, 8, true)
			t.AddRow(it, t2+m.SaveTime(bytes, 2, true)+m.RestartFixed+replay+load)
		default:
			t.AddRow(it, t8)
		}
	}
	return t
}

// Fig6Real performs the actual stop-checkpoint + wider restart and records
// real per-iteration times.
func Fig6Real(scale RealScale) (*metrics.Table, error) {
	rec := &metrics.IterRecorder{}
	res := &jgf.SORResult{Iters: rec}
	factory := func() core.App { return jgf.NewSOR(scale.N, scale.Iters, res) }
	stopAt := uint64(scale.Iters / 2)

	cfg := core.Config{
		Mode: core.Distributed, Procs: 2, AppName: "fig6-sor",
		Modules: jgf.SORModules(core.Distributed),
		Store:   scale.Store, CheckpointDir: scale.Dir, Policy: core.StopAt(stopAt),
	}
	eng, err := core.New(cfg, factory)
	if err != nil {
		return nil, err
	}
	if err := eng.Run(); err == nil {
		return nil, fmt.Errorf("fig6: run did not stop for adaptation")
	}
	rec.Break()
	wider := cfg
	wider.Policy = nil
	wider.Procs = 8
	eng2, err := core.New(wider, factory)
	if err != nil {
		return nil, err
	}
	if err := eng2.Run(); err != nil {
		return nil, fmt.Errorf("fig6 restart: %w", err)
	}
	t := metrics.NewTable(
		fmt.Sprintf("Figure 6 — Per-iteration time: 2 P -> 8 P restart at iteration %d (real)", stopAt),
		"iteration", "time/iter")
	for i, d := range rec.Times() {
		t.AddRow(i+1, d)
	}
	return t, nil
}

// Fig7Model regenerates "Benefits of resource expansion": adapting from
// 2/4/8 LE to 16 LE by run-time adaptation vs by restart.
func Fig7Model() *metrics.Table {
	m := perfmodel.Paper()
	t := metrics.NewTable(
		"Figure 7 — Expansion to 16 LE: run-time adaptation vs restart (modelled)",
		"start", "no adaptation", "run-time", "restart")
	for _, from := range []int{2, 4, 8} {
		stay := m.SORTime(paperN, paperIters, from, false, true)
		rt := m.AdaptExpandTime(paperN, paperIters, from, 16, false)
		rs := m.AdaptExpandTime(paperN, paperIters, from, 16, true)
		t.AddRow(fmt.Sprintf("%d LE", from), stay, rt, rs)
	}
	return t
}

// Fig7Real compares real run-time team expansion against real
// checkpoint-restart expansion.
func Fig7Real(scale RealScale) (*metrics.Table, error) {
	t := metrics.NewTable(
		"Figure 7 — Expansion to wider team: run-time vs restart (real)",
		"start", "run-time", "restart")
	to := scale.MaxPE
	adaptAt := uint64(scale.Iters / 2)
	for _, from := range []int{2, 4} {
		if from >= to {
			continue
		}
		// Run-time adaptation.
		cfg := core.Config{
			Mode: core.Shared, Threads: from, AppName: "fig7-sor",
			Modules: jgf.SORModules(core.Shared),
			Policy:  core.AdaptAt(adaptAt, core.AdaptTarget{Threads: to}),
		}
		rep, _, err := runReal(cfg, scale.N, scale.Iters)
		if err != nil {
			return nil, fmt.Errorf("fig7 runtime from %d: %w", from, err)
		}
		// Restart adaptation.
		res := &jgf.SORResult{}
		factory := func() core.App { return jgf.NewSOR(scale.N, scale.Iters, res) }
		first := core.Config{
			Mode: core.Shared, Threads: from, AppName: "fig7-sor",
			Modules: jgf.SORModules(core.Shared),
			Store:   scale.Store, CheckpointDir: scale.Dir, Policy: core.StopAt(adaptAt),
		}
		start := time.Now()
		eng, err := core.New(first, factory)
		if err != nil {
			return nil, err
		}
		if err := eng.Run(); err == nil {
			return nil, fmt.Errorf("fig7: first run did not stop")
		}
		second := first
		second.Policy = nil
		second.Threads = to
		eng2, err := core.New(second, factory)
		if err != nil {
			return nil, err
		}
		if err := eng2.Run(); err != nil {
			return nil, fmt.Errorf("fig7 restart from %d: %w", from, err)
		}
		restartTotal := time.Since(start)
		t.AddRow(fmt.Sprintf("%d LE", from), rep.Elapsed, restartTotal)
	}
	return t, nil
}

// Fig8Model regenerates "Overhead of over-decomposition".
func Fig8Model() *metrics.Table {
	m := perfmodel.Paper()
	t := metrics.NewTable(
		"Figure 8 — Over-decomposition on 16 PEs (modelled)",
		"factor", "tasks", "time", "slowdown")
	base := m.OverDecompTime(paperN, paperIters, 16, 1)
	for _, of := range []int{1, 2, 4, 8, 16} {
		d := m.OverDecompTime(paperN, paperIters, 16, of)
		t.AddRow(of, 16*of, d, fmt.Sprintf("%.2fx", float64(d)/float64(base)))
	}
	return t
}

// Fig8Real measures real over-decomposed execution: the pluggable SOR on
// the engine's Task executor, every sweep split into factor chunks per
// worker and scheduled by work stealing. Every factor must reproduce the
// same grid.
func Fig8Real(scale RealScale) (*metrics.Table, error) {
	pe := scale.MaxPE / 2
	if pe < 2 {
		pe = 2
	}
	t := metrics.NewTable(
		fmt.Sprintf("Figure 8 — Over-decomposition on %d PEs (real, %dx%d)", pe, scale.N, scale.N),
		"factor", "tasks", "time", "slowdown")
	var base time.Duration
	var want float64
	for _, of := range []int{1, 2, 4, 8, 16} {
		cfg := core.Config{
			Mode: core.Task, Threads: pe, Overdecompose: of, AppName: "fig8-sor",
			Modules: jgf.SORModules(core.Task),
		}
		rep, gtotal, err := runReal(cfg, scale.N, scale.Iters)
		if err != nil {
			return nil, fmt.Errorf("fig8 factor %d: %w", of, err)
		}
		if of == 1 {
			base, want = rep.Elapsed, gtotal
		} else if gtotal != want {
			return nil, fmt.Errorf("fig8 factor %d: Gtotal %v, factor 1 gave %v", of, gtotal, want)
		}
		t.AddRow(of, pe*of, rep.Elapsed, fmt.Sprintf("%.2fx", float64(rep.Elapsed)/float64(base)))
	}
	return t, nil
}

// Fig9Model regenerates "Overhead of adaptability": JGF Sequential /
// Threads / MPI vs the adaptive pluggable version, on the eight-core
// machines §V uses for this figure.
func Fig9Model() *metrics.Table {
	m := perfmodel.Paper()
	m.Top = cluster.Topology{
		Machines: 4, Cores: 8,
		IntraLatency: m.Top.IntraLatency, InterLatency: m.Top.InterLatency,
		IntraBW: m.Top.IntraBW, InterBW: m.Top.InterBW,
		DiskLatency: m.Top.DiskLatency, DiskBW: m.Top.DiskBW,
	}
	t := metrics.NewTable(
		"Figure 9 — Overhead of adaptability (modelled, 8-core machines)",
		"PEs", "JGF-Sequential", "JGF-Threads", "JGF-MPI", "Adaptive", "adaptive vs best")
	for _, pe := range []int{1, 4, 8, 16, 32} {
		seq := m.SORTime(paperN, paperIters, 1, false, false)
		th := m.SORTime(paperN, paperIters, pe, false, false)
		mpi := m.SORTime(paperN, paperIters, pe, true, false)
		ad := m.AdaptiveTime(paperN, paperIters, pe)
		best := th
		if mpi < best {
			best = mpi
		}
		t.AddRow(pe, seq, th, mpi, ad, fmt.Sprintf("+%.1f%%", 100*(float64(ad)/float64(best)-1)))
	}
	return t
}

// Fig9Real runs the hand-written JGF ports and the adaptive version on the
// real substrates at reduced scale.
func Fig9Real(scale RealScale) (*metrics.Table, error) {
	t := metrics.NewTable(
		fmt.Sprintf("Figure 9 — Overhead of adaptability (real, %dx%d)", scale.N, scale.N),
		"PEs", "JGF-Sequential", "JGF-Threads", "JGF-MPI", "Adaptive")
	ref := refimpl.Sequential(scale.N, scale.Iters)
	for _, pe := range []int{1, 2, 4, 8} {
		if pe > scale.MaxPE {
			break
		}
		start := time.Now()
		refimpl.Sequential(scale.N, scale.Iters)
		seqT := time.Since(start)

		start = time.Now()
		gt := refimpl.Threads(scale.N, scale.Iters, pe)
		thT := time.Since(start)
		if gt != ref {
			return nil, fmt.Errorf("fig9: threads(%d) diverged", pe)
		}

		start = time.Now()
		gm, err := refimpl.MPI(scale.N, scale.Iters, pe, nil)
		if err != nil {
			return nil, err
		}
		mpiT := time.Since(start)
		if gm != ref {
			return nil, fmt.Errorf("fig9: mpi(%d) diverged", pe)
		}

		// Adaptive: the pluggable version deployed to match pe.
		e := env{pe: pe, dist: pe > scale.MaxPE/2}
		if pe == 1 {
			e = env{pe: 1}
		}
		rep, g, err := runReal(cfgFor(e, scale, false, 0, 0), scale.N, scale.Iters)
		if err != nil {
			return nil, err
		}
		if g != ref {
			return nil, fmt.Errorf("fig9: adaptive(%d) diverged", pe)
		}
		t.AddRow(pe, seqT, thT, mpiT, rep.Elapsed)
	}
	return t, nil
}
