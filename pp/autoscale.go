package pp

import (
	"ppar/internal/autoscale"
	"ppar/internal/core"
)

// AutoScale is the closed-loop elastic autoscaler: an external driver that
// fits per-(Mode, Threads, Procs) iteration-time and efficiency curves
// from the live run — the analytic performance model as prior, scheduler
// queue-pressure counters as the skew signal — and requests resizes or
// cross-mode migrations at safe points when the predicted saving clears
// the measured migration cost with hysteresis. Create with NewAutoScale,
// attach with WithAutoScale.
type AutoScale = autoscale.AutoScale

// AutoScaleConfig tunes the feedback loop; the zero value is usable.
type AutoScaleConfig = autoscale.Config

// AutoScaleDecision records one issued reconfiguration request.
type AutoScaleDecision = autoscale.Decision

// AutoScaleShape is one observed (Mode, Threads, Procs) configuration.
type AutoScaleShape = autoscale.Shape

// NewAutoScale builds an autoscaler. One AutoScale may drive a sequence
// of engine launches (run → checkpoint-stop → relaunch): its curve table
// and move budget persist across them.
func NewAutoScale(cfg AutoScaleConfig) *AutoScale { return autoscale.New(cfg) }

// WithAutoScale attaches a feedback autoscaler as the run's adaptation
// driver: it is started when the run starts, feeds Engine.RequestAdapt
// from outside the deterministic policy path, and is stopped when the run
// ends.
func WithAutoScale(a *AutoScale) Option {
	return func(c *core.Config) { c.Driver = a }
}
