package pp

import "ppar/internal/core"

// AdaptPolicy decides, at each safe point, whether the run should reshape
// its parallelism or checkpoint-and-stop. Decide must be a pure function of
// the RunStats (every line of execution evaluates it independently and all
// must agree). Plug one in with WithAdaptPolicy; asynchronous sources use
// Engine.RequestAdapt / Engine.RequestStop, or WithAutoScale, instead.
type AdaptPolicy = core.AdaptPolicy

// RunStats is the deterministic view of the run handed to an AdaptPolicy.
type RunStats = core.RunStats

// PolicyFunc adapts a plain function to the AdaptPolicy interface.
type PolicyFunc = core.PolicyFunc

// AdaptStep is one step of a Schedule policy.
type AdaptStep = core.AdaptStep

// AdaptAt returns a policy that requests target exactly at safe point sp.
func AdaptAt(sp uint64, target AdaptTarget) AdaptPolicy { return core.AdaptAt(sp, target) }

// StopAt returns a policy that checkpoints and stops the run exactly at
// safe point sp — the paper's adaptation by restart.
func StopAt(sp uint64) AdaptPolicy { return core.StopAt(sp) }

// Schedule returns a policy replaying a fixed sequence of reshapings keyed
// by safe point — a resource-manager trace replayed deterministically,
// usable in every mode.
func Schedule(steps ...AdaptStep) AdaptPolicy { return core.Schedule(steps...) }

// Policies chains policies; the first non-zero decision wins.
func Policies(ps ...AdaptPolicy) AdaptPolicy { return core.Policies(ps...) }
