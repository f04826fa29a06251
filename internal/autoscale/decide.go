package autoscale

import (
	"fmt"
	"time"

	"ppar/internal/core"
	"ppar/internal/metrics"
	"ppar/internal/perfmodel"
)

// state is one monitor sample — everything a decision is a function of.
// Step is exported on this snapshot form (rather than buried in the Drive
// loop) so tests and benchmarks can drive the decision logic with
// deterministic synthetic traces, no engine or clock involved.
type State struct {
	SP    uint64        // live safe-point counter (Engine.Progress)
	Now   time.Duration // monitor clock: elapsed since Drive
	Shape Shape         // configuration currently executing

	Sched     metrics.SchedStats // Task-mode queue pressure (Report.Sched)
	Moves     int                // Report.Migrations: measured moves so far
	MoveTotal time.Duration      // Report.MigrationTotal

	CapThreads int // live per-machine thread capacity
	CapProcs   int // live world-size capacity
}

// Step folds one sample into the curve table and decides. The returned
// Decision is only meaningful when ok is true; ok is false when the sample
// updated the model but no reconfiguration clears the gates.
func (a *AutoScale) Step(s State) (Decision, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()

	// Regime change: a new shape is executing. Re-prime the rate window so
	// windows never mix configurations, and clear any in-flight marker —
	// the request (or someone else's) has landed.
	if s.Shape != a.last {
		a.last = s.Shape
		a.rate.Reset()
		a.lastWindows = 0
		a.inFlight = false
		a.pendTgt, a.pendRuns = core.AdaptTarget{}, 0
	}
	a.rate.Observe(s.SP, s.Now.Seconds())
	if n := a.rate.Count(); n > a.lastWindows {
		// A new rate window completed: fold its RAW per-safe-point cost
		// into this shape's cell. Raw, not the smoothed PerUnit — the cell
		// keeps its own EWMA, and smoothing twice would hide the
		// measurement spread the noise gate below depends on.
		a.lastWindows = n
		c := a.obs[s.Shape]
		if c == nil {
			c = &obsCell{rate: metrics.NewEWMA(a.cfg.Alpha)}
			a.obs[s.Shape] = c
		}
		c.rate.Observe(a.rate.LastRaw())
		c.windows++
	}

	// Forced shrink: capacity dropped below the running shape. Issued
	// immediately — no evidence, profit or stability gate — because the
	// capacity is gone either way.
	if d, ok := a.forcedShrink(s); ok {
		return a.issue(d)
	}
	if a.inFlight {
		// A request is pending at the engine; deciding again would stack
		// targets and the later one would silently win.
		return Decision{}, false
	}

	cell := a.obs[s.Shape]
	if cell == nil || cell.windows < uint64(a.cfg.MinWindows) {
		return Decision{}, false // cold: no voluntary move without evidence
	}
	tCur := cell.rate.Mean()
	if tCur <= 0 {
		return Decision{}, false
	}

	best, tBest, ok := a.bestCandidate(s, tCur)
	if !ok || tCur-tBest < a.cfg.MinGain*tCur {
		a.pendRuns = 0
		return Decision{}, false
	}

	// Profit gate with hysteresis margin, plus a noise floor: a saving
	// smaller than one standard deviation of the measured per-safe-point
	// time over the same horizon is indistinguishable from measurement
	// jitter and must not trigger a move.
	saving := time.Duration((tCur - tBest) * float64(a.cfg.HorizonSP) * float64(time.Second))
	noise := time.Duration(cell.rate.StdDev() * float64(a.cfg.HorizonSP) * float64(time.Second))
	cost := a.moveCost(s)
	if float64(saving) <= (1+a.cfg.Margin)*float64(cost)+float64(noise) {
		a.pendRuns = 0
		return Decision{}, false
	}

	// Stability gates: confirmation streak, cooldown, move budget.
	if best != a.pendTgt {
		a.pendTgt, a.pendRuns = best, 1
		return Decision{}, false
	}
	a.pendRuns++
	if a.pendRuns < a.cfg.Confirm {
		return Decision{}, false
	}
	if a.moves >= a.cfg.MaxMoves {
		return Decision{}, false
	}
	if a.lastMove > 0 && s.Now-a.lastMove < a.cfg.Cooldown {
		return Decision{}, false
	}

	a.moves++
	return a.issue(Decision{
		SP: s.SP, At: s.Now, From: s.Shape, Target: best,
		Saving: saving, Cost: cost,
		Reason: fmt.Sprintf("predicted %v/sp -> %v/sp over %d sp", time.Duration(tCur*float64(time.Second)).Round(time.Microsecond), time.Duration(tBest*float64(time.Second)).Round(time.Microsecond), a.cfg.HorizonSP),
	})
}

// issue records a decision and marks it in flight. Callers hold a.mu.
func (a *AutoScale) issue(d Decision) (Decision, bool) {
	a.inFlight = true
	a.lastMove = d.At
	a.pendTgt, a.pendRuns = core.AdaptTarget{}, 0
	a.decisions = append(a.decisions, d)
	return d, true
}

// forcedShrink clamps the running shape to the live capacity. When the
// shape cannot shrink in place (a fixed world, Sequential), it requests
// checkpoint-and-stop: the owner relaunches under the new capacity and the
// re-sharding restore repartitions the state — the paper's
// adaptation-by-restart as the capacity-loss escape hatch.
func (a *AutoScale) forcedShrink(s State) (Decision, bool) {
	sh := s.Shape
	overT := threadShrinkable(sh.Mode) && sh.Threads > s.CapThreads
	overP := sh.Procs > s.CapProcs
	if !overT && !overP {
		return Decision{}, false
	}
	d := Decision{SP: s.SP, At: s.Now, From: sh, Forced: true}
	switch {
	case overP && (sh.Mode != core.Distributed || !a.cfg.AllowWorldResize):
		// The world cannot shrink in place: stop, relaunch, re-shard.
		d.Stop = true
		d.Reason = fmt.Sprintf("capacity %d procs < world %d: checkpoint-and-stop for re-sharded relaunch", s.CapProcs, sh.Procs)
	case overP:
		d.Target = core.AdaptTarget{Procs: s.CapProcs}
		d.Reason = fmt.Sprintf("capacity shrink: world %d -> %d", sh.Procs, s.CapProcs)
	default:
		d.Target = core.AdaptTarget{Threads: s.CapThreads}
		d.Reason = fmt.Sprintf("capacity shrink: team %d -> %d", sh.Threads, s.CapThreads)
	}
	return d, true
}

func threadShrinkable(m core.Mode) bool {
	return m == core.Shared || m == core.Task || m == core.Hybrid
}

// exploreCap bounds candidate sizing for mode m while it has fewer than
// two measured PE points: at most a doubling of the current effective
// parallelism. Callers hold a.mu.
func (a *AutoScale) exploreCap(m core.Mode, s State) int {
	if a.distinctPEs(m) >= 2 {
		return int(^uint(0) >> 1)
	}
	return 2 * a.cfg.Model.EffectivePE(peOf(s.Shape), dist(s.Shape.Mode))
}

// distinctPEs counts how many distinct effective PE values of mode m have
// measured evidence — the degraded-basis ladder of perfmodel.Fit makes two
// the threshold for trusting extrapolated growth. Callers hold a.mu.
func (a *AutoScale) distinctPEs(m core.Mode) int {
	seen := map[int]bool{}
	for sh, cell := range a.obs {
		if sh.Mode == m && cell.windows > 0 {
			seen[a.cfg.Model.EffectivePE(peOf(sh), dist(m))] = true
		}
	}
	return len(seen)
}

// moveCost returns the measured mean migration cost, or the configured
// estimate before anything has been measured.
func (a *AutoScale) moveCost(s State) time.Duration {
	if s.Moves > 0 {
		return s.MoveTotal / time.Duration(s.Moves)
	}
	return a.cfg.MoveCost
}

// bestCandidate evaluates every admissible target against the fitted
// curves and returns the cheapest, with its predicted per-safe-point cost
// in seconds. Callers hold a.mu.
func (a *AutoScale) bestCandidate(s State, tCur float64) (core.AdaptTarget, float64, bool) {
	sh := s.Shape
	idleVeto := sh.Mode == core.Task && s.Sched.IdleRatio() > a.cfg.IdleHigh
	skewVeto := sh.Mode == core.Task && s.Sched.StealRatio() > a.cfg.SkewHigh
	peCur := peOf(sh)

	bestT := tCur
	var best core.AdaptTarget
	found := false
	consider := func(t core.AdaptTarget, cand Shape) {
		pe := a.cfg.Model.EffectivePE(peOf(cand), dist(cand.Mode))
		if idleVeto && pe > peCur {
			return // workers already idle: growing buys nothing
		}
		if pe > 2*peCur && a.distinctPEs(cand.Mode) < 2 {
			// Explore before exploiting: a single measured point cannot
			// distinguish a scalable workload from a serial-floor one (both
			// fit t = A/p exactly), so growth is capped at a doubling until
			// the target family has a second point to pin the floor.
			return
		}
		curve := a.familyCurve(cand.Mode, s, tCur)
		pred := curve.Predict(pe)
		if pe > peCur && curve.Efficiency(pe) < a.cfg.MinEff {
			return // Figure 9: past the knee, capacity buys nothing
		}
		if pred < bestT {
			bestT, best, found = pred, t, true
		}
	}

	// Resizes of the running shape: thread resizes happen in place, a
	// Distributed world resize is a same-mode relaunch that costs about a
	// migration (moveCost charges every move alike).
	switch sh.Mode {
	case core.Shared, core.Task, core.Hybrid:
		for th := 1; th <= s.CapThreads; th++ {
			if th == sh.Threads {
				continue
			}
			consider(core.AdaptTarget{Threads: th},
				Shape{Mode: sh.Mode, Threads: th, Procs: sh.Procs})
		}
	case core.Distributed:
		if a.cfg.AllowWorldResize {
			for p := 1; p <= s.CapProcs; p++ {
				if p == sh.Procs {
					continue
				}
				consider(core.AdaptTarget{Procs: p},
					Shape{Mode: sh.Mode, Threads: sh.Threads, Procs: p})
			}
		}
	}

	// Cross-mode migrations to the configured candidate modes, each at its
	// own curve's best admissible size.
	for _, m := range a.cfg.Modes {
		if m == sh.Mode || (skewVeto && sh.Mode == core.Task) {
			continue
		}
		cand, ok := a.bestShapeFor(m, s, tCur)
		if !ok {
			continue
		}
		consider(core.AdaptTarget{Mode: m, Threads: cand.Threads, Procs: cand.Procs}, cand)
	}
	return best, bestT, found
}

// bestShapeFor sizes mode m inside the live capacity using its fitted
// curve. Callers hold a.mu.
func (a *AutoScale) bestShapeFor(m core.Mode, s State, tCur float64) (Shape, bool) {
	switch m {
	case core.Sequential:
		return Shape{Mode: m, Threads: 1, Procs: 1}, true
	case core.Shared, core.Task:
		max := a.cfg.Model.EffectivePE(s.CapThreads, false)
		if cap := a.exploreCap(m, s); cap < max {
			max = cap
		}
		pe, _ := a.familyCurve(m, s, tCur).Best(max)
		return Shape{Mode: m, Threads: pe, Procs: 1}, true
	case core.Distributed:
		max := a.cfg.Model.EffectivePE(s.CapProcs, true)
		if cap := a.exploreCap(m, s); cap < max {
			max = cap
		}
		pe, _ := a.familyCurve(m, s, tCur).Best(max)
		if pe < 2 {
			pe = 2 // a one-rank world is Sequential with extra steps
		}
		if pe > s.CapProcs {
			return Shape{}, false
		}
		return Shape{Mode: m, Threads: 1, Procs: pe}, true
	case core.Hybrid:
		th := a.cfg.Model.EffectivePE(s.CapThreads, false)
		pr := s.CapProcs
		if pr > a.cfg.Model.Top.Machines {
			pr = a.cfg.Model.Top.Machines
		}
		if pr < 1 {
			pr = 1
		}
		return Shape{Mode: m, Threads: th, Procs: pr}, true
	}
	return Shape{}, false
}

// familyCurve returns the iteration-time curve for mode m: the analytic
// prior re-anchored to the live magnitude, blended with a least-squares
// fit over every shape of that mode actually measured. Callers hold a.mu.
func (a *AutoScale) familyCurve(m core.Mode, s State, tCur float64) perfmodel.Curve {
	d := dist(m)
	prior, ok := a.priors[d]
	if !ok {
		prior = a.cfg.Model.PriorCurve(a.cfg.GridN, d)
		a.priors[d] = prior
	}
	// Anchor the prior's magnitude through the current observation: the
	// model knows shapes, the live run knows seconds. The current shape's
	// own family carries the anchor; other families inherit the same
	// magnitude correction (compute cost is mode-independent to first
	// order — the shapes differ, the cell rate does not).
	curFam := a.priors[dist(s.Shape.Mode)]
	if !okCurve(curFam) {
		curFam = a.cfg.Model.PriorCurve(a.cfg.GridN, dist(s.Shape.Mode))
		a.priors[dist(s.Shape.Mode)] = curFam
	}
	peCur := a.cfg.Model.EffectivePE(peOf(s.Shape), dist(s.Shape.Mode))
	if p := curFam.Predict(peCur); p > 0 && tCur > 0 {
		prior = prior.Scale(tCur / p)
	}

	var samples []perfmodel.Sample
	var n float64
	for sh, cell := range a.obs {
		if sh.Mode != m || cell.windows == 0 {
			continue
		}
		samples = append(samples, perfmodel.Sample{
			PE: a.cfg.Model.EffectivePE(peOf(sh), d),
			T:  cell.rate.Mean(),
			W:  float64(cell.windows),
		})
		n += float64(cell.windows)
	}
	fit, ok := perfmodel.Fit(samples)
	if !ok {
		return prior
	}
	return perfmodel.Blend(prior, fit, n/(n+a.cfg.PriorK))
}

func okCurve(c perfmodel.Curve) bool { return c.A != 0 || c.B != 0 || c.C != 0 }
