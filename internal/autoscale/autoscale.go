// Package autoscale closes the loop the source paper left manual: the
// checkpoint/migrate machinery makes reconfiguration cheap, and this
// package decides *when* a reconfiguration pays for itself.
//
// AutoScale is a core.AdaptDriver — the external resource manager of the
// paper's §I — not a core.AdaptPolicy: its decisions depend on wall-clock
// throughput, so they cannot be a pure function of RunStats (the property
// the engine demands of policies, machine-checked by pplint's pppure).
// Instead it runs a monitor goroutine that samples Engine.Progress and
// Engine.Report, fits per-(Mode, Threads, Procs) iteration-time and
// efficiency curves online — perfmodel's analytic shape t(p) = A/p + B + C·p
// as the prior, live measurements taking over as evidence accumulates —
// and feeds Engine.RequestAdapt when a candidate configuration's predicted
// saving over the decision horizon clears the measured migration cost with
// hysteresis.
//
// The decision gates, in order:
//
//   - capacity: when the live capacity (a churn simulator, a fleet budget)
//     drops below the current shape, shrink immediately — or, when the
//     deployment cannot shrink in place, checkpoint-and-stop so the owner
//     relaunches under the new capacity (forced shrink via re-sharding
//     restore). Forced moves bypass the cost gate: the capacity is gone
//     whether or not the move is profitable.
//   - evidence: no voluntary move until the current configuration has been
//     measured for MinWindows sampling windows.
//   - skew: Task-mode queue-pressure counters veto moves the model cannot
//     see. A high idle ratio means workers already outnumber the work, so
//     growth candidates are dropped; a high steal ratio means work stealing
//     is absorbing real imbalance, so migrations away from Task are
//     dropped.
//   - efficiency: growth candidates must clear the fitted efficiency floor
//     (Figure 9's lesson: past the knee, capacity buys nothing).
//   - profit: predicted saving over HorizonSP safe points must exceed the
//     measured per-migration cost (Report.MigrationTotal/Migrations; a
//     configurable estimate before the first move) by the hysteresis
//     margin.
//   - stability: the same target must win Confirm consecutive evaluation
//     rounds, at most one voluntary move per Cooldown, at most MaxMoves
//     voluntary moves per run — the no-flapping bound the churn soak
//     asserts.
package autoscale

import (
	"sync"
	"time"

	"ppar/internal/core"
	"ppar/internal/metrics"
	"ppar/internal/perfmodel"
)

// Config tunes the feedback loop. The zero value is usable: every field
// has a default chosen so a short run is left alone and a long skewed one
// converges in a handful of windows.
type Config struct {
	// Model is the analytic prior (zero Top → perfmodel.Paper()).
	Model perfmodel.Model
	// GridN is the problem scale the prior curve is fitted at (default
	// 2000, the paper's SOR grid). Only the shape matters — magnitudes are
	// re-anchored to live measurements.
	GridN int
	// Interval is the monitor sampling period (default 25ms).
	Interval time.Duration
	// MinWindows is how many completed rate windows the current
	// configuration must accumulate before voluntary moves are considered
	// (default 3).
	MinWindows int
	// PriorK is the blend stiffness: observations get weight n/(n+PriorK)
	// against the analytic prior, n counting measured windows (default 4).
	PriorK float64
	// Alpha is the EWMA weight for per-safe-point time smoothing
	// (default 0.3).
	Alpha float64
	// Margin is the hysteresis: predicted savings must exceed
	// (1+Margin)×cost (default 0.25).
	Margin float64
	// MinGain is the relative-improvement tolerance: a candidate must
	// predict at least this fraction off the current per-safe-point time
	// (default 0.05). It filters the phantom slopes measurement noise
	// paints between configurations — the analogue of a resize tolerance
	// in any production autoscaler.
	MinGain float64
	// HorizonSP is the number of future safe points a saving is amortised
	// over (default 500). Runs shorter than the horizon under-estimate the
	// migration cost share; that errs toward stability.
	HorizonSP uint64
	// Confirm is how many consecutive evaluation rounds must elect the
	// same target before it is issued (default 2).
	Confirm int
	// Cooldown is the minimum time between voluntary moves (default
	// 20×Interval).
	Cooldown time.Duration
	// MaxMoves bounds voluntary moves per AutoScale lifetime (default 8).
	// Forced capacity shrinks are not counted — capacity loss must always
	// be obeyed.
	MaxMoves int
	// MinEff is the efficiency floor for growth candidates (default 0.4).
	MinEff float64
	// IdleHigh is the Task-mode idle-probe ratio above which growth
	// candidates are vetoed (default 0.5).
	IdleHigh float64
	// SkewHigh is the Task-mode steal ratio above which cross-mode
	// migrations away from Task are vetoed (default 0.2).
	SkewHigh float64
	// MoveCost estimates one reconfiguration before any has been measured
	// (default 50ms). After the first migration the measured mean
	// Report.MigrationTotal/Migrations replaces it.
	MoveCost time.Duration
	// Modes lists cross-mode migration candidates. Empty = in-place
	// resizes only.
	Modes []core.Mode
	// AllowWorldResize permits Distributed world resizes. The engine
	// serves each as a same-mode relaunch aligned to the checkpoint
	// cadence, so it costs about a migration (and counts in
	// Report.Migrations), and a run without a due checkpoint aborts on
	// it. Leave false unless the deployment uses the in-process
	// transport and a checkpoint cadence — the TCP transport would abort
	// the run too.
	AllowWorldResize bool
	// Capacity, when non-nil, is the live resource ceiling (threads on one
	// machine, world size) — the churn simulator or fleet budget plugs in
	// here. Nil means the model topology is the ceiling.
	Capacity func() (threads, procs int)
	// OnDecision, when non-nil, observes every issued decision (for logs
	// and tests). Called from the monitor goroutine.
	OnDecision func(Decision)
}

func (c Config) withDefaults() Config {
	if c.Model.Top.Cores == 0 {
		c.Model = perfmodel.Paper()
	}
	if c.GridN <= 0 {
		c.GridN = 2000
	}
	if c.Interval <= 0 {
		c.Interval = 25 * time.Millisecond
	}
	if c.MinWindows <= 0 {
		c.MinWindows = 3
	}
	if c.PriorK <= 0 {
		c.PriorK = 4
	}
	if c.Alpha <= 0 {
		c.Alpha = 0.3
	}
	if c.Margin <= 0 {
		c.Margin = 0.25
	}
	if c.MinGain <= 0 {
		c.MinGain = 0.05
	}
	if c.HorizonSP == 0 {
		c.HorizonSP = 500
	}
	if c.Confirm <= 0 {
		c.Confirm = 2
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 20 * c.Interval
	}
	if c.MaxMoves <= 0 {
		c.MaxMoves = 8
	}
	if c.MinEff <= 0 {
		c.MinEff = 0.4
	}
	if c.IdleHigh <= 0 {
		c.IdleHigh = 0.5
	}
	if c.SkewHigh <= 0 {
		c.SkewHigh = 0.2
	}
	if c.MoveCost <= 0 {
		c.MoveCost = 50 * time.Millisecond
	}
	return c
}

// Decision records one issued reconfiguration request.
type Decision struct {
	SP     uint64           // safe point observed when the decision fired
	At     time.Duration    // monitor clock (since Drive)
	From   Shape            // configuration measured
	Target core.AdaptTarget // request issued (zero when Stop)
	Stop   bool             // checkpoint-and-stop was requested instead
	Forced bool             // capacity shrink (bypassed the cost gate)
	Saving time.Duration    // predicted saving over the horizon
	Cost   time.Duration    // migration cost charged against it
	Reason string           // one-line explanation
}

// Shape is one observed (Mode, Threads, Procs) configuration.
type Shape struct {
	Mode    core.Mode
	Threads int
	Procs   int
}

func dist(m core.Mode) bool { return m == core.Distributed || m == core.Hybrid }

func peOf(s Shape) int {
	switch s.Mode {
	case core.Sequential:
		return 1
	case core.Distributed:
		return s.Procs
	case core.Hybrid:
		return s.Threads * s.Procs
	default: // Shared, Task
		return s.Threads
	}
}

// obsCell accumulates the measured per-safe-point cost of one shape.
type obsCell struct {
	rate    *metrics.EWMA
	windows uint64
}

// AutoScale is the feedback autoscaler. Create with New, plug in as a
// core.AdaptDriver (pp.WithAutoScale). One AutoScale may drive a sequence
// of engines (run → stop → relaunch): the curve table and move budget
// persist across them, the rate window re-primes per run.
type AutoScale struct {
	cfg Config

	mu          sync.Mutex
	rate        *metrics.RateWindow
	lastWindows uint64 // rate.Count() high-water mark: one cell fold per window
	last        Shape
	obs         map[Shape]*obsCell
	pendTgt     core.AdaptTarget // candidate awaiting confirmation
	pendRuns    int
	inFlight    bool          // a request was issued and has not landed yet
	moves       int           // voluntary moves issued
	lastMove    time.Duration // monitor clock of the last issued move
	decisions   []Decision
	priors      map[bool]perfmodel.Curve // keyed by dist flag
}

// New returns an autoscaler with the given configuration.
func New(cfg Config) *AutoScale {
	cfg = cfg.withDefaults()
	return &AutoScale{
		cfg:    cfg,
		rate:   metrics.NewRateWindow(cfg.Alpha),
		obs:    map[Shape]*obsCell{},
		priors: map[bool]perfmodel.Curve{},
	}
}

var _ core.AdaptDriver = (*AutoScale)(nil)

// Drive starts the monitor loop against eng; the returned stop function
// (idempotent) halts it. Implements core.AdaptDriver.
func (a *AutoScale) Drive(eng *core.Engine) (stop func()) {
	a.mu.Lock()
	a.rate.Reset() // a fresh run: never mix rates across engine launches
	a.lastWindows = 0
	a.pendTgt, a.pendRuns = core.AdaptTarget{}, 0
	a.inFlight = false
	a.mu.Unlock()

	start := time.Now()
	stopCh := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(a.cfg.Interval)
		defer tick.Stop()
		for {
			select {
			case <-stopCh:
				return
			case <-tick.C:
			}
			sp, mode, threads, procs := eng.Progress()
			if sp == 0 {
				continue // not at the first safe point yet
			}
			rep := eng.Report()
			st := State{
				SP:        sp,
				Now:       time.Since(start),
				Shape:     Shape{Mode: mode, Threads: threads, Procs: procs},
				Sched:     rep.Sched(),
				Moves:     rep.Migrations,
				MoveTotal: rep.MigrationTotal,
			}
			st.CapThreads, st.CapProcs = a.capacity()
			d, ok := a.Step(st)
			if !ok {
				continue
			}
			if d.Stop {
				eng.RequestStop()
			} else {
				eng.RequestAdapt(d.Target)
			}
			if f := a.cfg.OnDecision; f != nil {
				f(d)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(stopCh)
			<-done
		})
	}
}

func (a *AutoScale) capacity() (threads, procs int) {
	if a.cfg.Capacity != nil {
		threads, procs = a.cfg.Capacity()
	} else {
		threads, procs = a.cfg.Model.Top.Cores, a.cfg.Model.Top.TotalCores()
	}
	if threads < 1 {
		threads = 1
	}
	if procs < 1 {
		procs = 1
	}
	return threads, procs
}

// Decisions returns a copy of every decision issued so far — the soak
// tests assert this stays bounded and free of A→B→A flapping.
func (a *AutoScale) Decisions() []Decision {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Decision(nil), a.decisions...)
}
