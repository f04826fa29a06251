package core

// RunStats is the view of the run handed to an AdaptPolicy at each safe
// point. It deliberately contains only values that are identical on every
// line of execution at the same safe point (no wall-clock time, no rank or
// thread identity): the engine consults the policy independently on every
// thread and rank, and the collective adaptation/checkpoint protocols
// require all of them to reach the same decision without synchronising —
// the same property the paper demands of the checkpoint policy (§IV.A).
type RunStats struct {
	// SafePoint is the safe-point counter at which the policy is asked.
	SafePoint uint64
	// Mode is the mode of the running executor; after an in-process
	// migration it reports the migration target, so mode-conditional
	// policies ("while Shared, migrate to Distributed") quiesce once the
	// move has happened.
	Mode Mode
	// Threads is the current team size (1 outside regions).
	Threads int
	// Procs is the current world size.
	Procs int
	// Restarted reports whether this run replayed from a persisted
	// checkpoint (in-process migrations do not count).
	Restarted bool

	// Checkpoint cadence counters: how many periodic checkpoints the
	// schedule has made due by this safe point — FullSaves full snapshots
	// and DeltaSaves delta links under the configured compaction cadence —
	// and the safe point of the newest one (0 when none yet). They are
	// pure functions of the safe point and the configuration, so they stay
	// identical on every line of execution; they describe the schedule,
	// not the store (restart and migration re-base the persisted chain
	// early, and the asynchronous writer may fold captures — Report holds
	// the persist-side truth).
	FullSaves        int
	DeltaSaves       int
	LastCheckpointSP uint64

	// Overdecompose is the Task-mode chunking factor k (the normalised
	// Config.Overdecompose; meaningful only when Mode is Task).
	Overdecompose int
	// Rebalances counts the cross-rank partition rebalances the Task-mode
	// balancer has applied. Every rank computes the rebalance decision from
	// allgathered data and increments in lockstep, so the count stays
	// identical on every line of execution — unlike the raw steal/idle
	// counters, which are timing-dependent and therefore live only in
	// Report and the metrics surface.
	Rebalances int
}

// AdaptPolicy decides, at each safe point, whether the run should reshape
// its parallelism or checkpoint-and-stop. Decide must be a pure function of
// its argument (every line of execution evaluates it independently and all
// must agree); return the zero AdaptTarget to leave the run unchanged.
// Time-driven, external or otherwise non-deterministic decisions must
// instead go through Engine.RequestAdapt / Engine.RequestStop, which
// serialise the request through the coordinator.
type AdaptPolicy interface {
	Decide(RunStats) AdaptTarget
}

// PolicyFunc adapts a plain function to the AdaptPolicy interface.
type PolicyFunc func(RunStats) AdaptTarget

// Decide calls f.
func (f PolicyFunc) Decide(s RunStats) AdaptTarget { return f(s) }

// AdaptAt returns a policy that requests target exactly at safe point sp.
func AdaptAt(sp uint64, target AdaptTarget) AdaptPolicy {
	return PolicyFunc(func(s RunStats) AdaptTarget {
		if s.SafePoint == sp {
			return target
		}
		return AdaptTarget{}
	})
}

// StopAt returns a policy that checkpoints and stops the run exactly at
// safe point sp — adaptation by restart (Figures 6 and 7).
func StopAt(sp uint64) AdaptPolicy {
	return PolicyFunc(func(s RunStats) AdaptTarget {
		if s.SafePoint == sp {
			return AdaptTarget{Stop: true}
		}
		return AdaptTarget{}
	})
}

// AdaptStep is one step of a Schedule: at safe point At, request Target.
type AdaptStep struct {
	At     uint64
	Target AdaptTarget
}

// Schedule returns a policy that replays a fixed sequence of reshapings
// keyed by safe point — a resource-manager trace replayed deterministically,
// usable in every mode (including distributed, where wall-clock triggers
// cannot be agreed on).
func Schedule(steps ...AdaptStep) AdaptPolicy {
	return PolicyFunc(func(s RunStats) AdaptTarget {
		for _, st := range steps {
			if st.At == s.SafePoint {
				return st.Target
			}
		}
		return AdaptTarget{}
	})
}

// AdaptDriver is an external source of adaptation requests — the resource
// manager of §I, living outside the run. Drive is called when the run
// starts; the returned stop function is called (once) when it ends. A
// driver feeds Engine.RequestAdapt / Engine.RequestStop asynchronously;
// requests are serialised through the coordinator, so unlike an
// AdaptPolicy it need not be deterministic.
type AdaptDriver interface {
	Drive(e *Engine) (stop func())
}

// Policies chains policies: the first non-zero decision wins. A nil slice
// (or all-zero decisions) leaves the run unchanged.
func Policies(ps ...AdaptPolicy) AdaptPolicy {
	switch len(ps) {
	case 0:
		return nil
	case 1:
		return ps[0]
	}
	return PolicyFunc(func(s RunStats) AdaptTarget {
		for _, p := range ps {
			if p == nil {
				continue
			}
			if t := p.Decide(s); !t.IsZero() {
				return t
			}
		}
		return AdaptTarget{}
	})
}
