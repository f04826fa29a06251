// Package pp is the public API of the pluggable-parallelisation library: a
// Go implementation of "Checkpoint and Run-Time Adaptation with Pluggable
// Parallelisation" (Medeiros & Sobral, ICPP 2011).
//
// # Programming model
//
// Write your program as ordinary sequential Go. Route methods you may want
// to advise through ctx.Call and loops through pp.For / pp.ForSpan:
//
//	type SOR struct {
//		G [][]float64 // exported so modules can manage it
//		N, Iters int
//	}
//
//	func (s *SOR) Main(ctx *pp.Ctx) { ctx.Call("run", s.run) }
//
//	func (s *SOR) run(ctx *pp.Ctx) {
//		for it := 0; it < s.Iters; it++ {
//			ctx.Call("sweep", s.sweep)     // advisable method
//			ctx.Call("iter", func(*pp.Ctx) {})
//		}
//	}
//
//	func (s *SOR) sweep(ctx *pp.Ctx) {
//		pp.ForSpan(ctx, "rows", 1, s.N-1, func(lo, hi int) { ... })
//	}
//
// With no modules plugged this runs strictly sequentially. Parallelisation,
// checkpointing and adaptation are declared in separate modules:
//
//	smp := pp.NewModule("sor/smp").
//		ParallelMethod("run").
//		LoopSchedule("rows", pp.Static, 1)
//
//	ckpt := pp.NewModule("sor/ckpt").
//		SafeData("G").            // what to save
//		SafePointAfter("iter").   // where snapshots may be taken
//		Ignorable("sweep")        // what replay may skip
//
// # Deployments are assembled from functional options
//
//	eng, err := pp.New(func() pp.App { return NewSOR(...) },
//		pp.WithMode(pp.Shared), pp.WithThreads(8),
//		pp.WithModules(smp, ckpt),
//		pp.WithCheckpointDir("/tmp/ckpt"), pp.WithCheckpointEvery(10),
//	)
//	err = eng.Run()
//
// The same base code deploys Sequential, Shared (thread team), Distributed
// (SPMD aggregate replicas) or Hybrid; checkpoints taken by the
// gather-at-master protocol restart in ANY mode; and the running program
// can expand or contract its thread team / replica world at safe points.
//
// # Pluggable checkpoint backends
//
// Checkpoint transport is the Store interface, selected with WithStore.
// Two stock backends implement it — filesystem (NewFSStore) and in-memory
// (NewMemStore) — and three wrappers decorate any Store: gzip compression
// (NewGzipStore), content-addressed deduplication (NewDedupStore) and
// per-tenant namespacing (NamespacedStore):
//
//	store := pp.NewGzipStore(pp.NewMemStore())
//	eng, err := pp.New(factory, pp.WithMode(pp.Distributed), pp.WithProcs(4),
//		pp.WithModules(mods...), pp.WithStore(store), pp.WithCheckpointEvery(10))
//
// There are two seams. Store is the typed one the engine and the wrappers
// speak: snapshots, chain links, manifests, chunks and the run ledger. The
// stock backends do not implement it method by method: one layout (in
// ppar/internal/ckpt) implements all of it — artifact names, chain
// truncation, exact-name Clear, the ledger marker, chunk reference counts —
// over a four-method blob contract, and a backend is only that contract:
// Put(name, write) replaces a named blob atomically (readers see the whole
// old blob or the whole new one; a failed Put leaves the old one) and
// durably (it survives a machine crash once Put returns); Open(name) reads
// it, reporting fs.ErrNotExist when absent; Delete(name) is idempotent and
// need not be durable; List() returns the exact names of complete blobs,
// never a Put in flight. Adding a backend is a page of code there; a
// Store written from scratch against the interface below works too.
//
// WithCheckpointDir(dir) remains as sugar for WithStore(filesystem store).
// Because the canonical snapshot format is mode-independent, a checkpoint
// written through any Store restarts under any mode — including through a
// purely in-memory store shared by the two engines.
//
// Store guarantees: Save is atomic (the filesystem store writes to a temp
// file, fsyncs it, renames, and fsyncs the directory, so a crash mid-write
// never damages the previous checkpoint), Clear removes only the named
// application's snapshots (never another app whose name shares a prefix),
// and Load reports found=false only when no checkpoint exists — a snapshot
// that exists but fails to decode reports found=true with the error.
// Decoding validates every checksum and bounds every length against the
// data actually present, so corrupt or crafted snapshots fail cleanly.
//
// # Asynchronous checkpointing
//
// By default every save blocks all lines of execution at the safe-point
// barrier for the full encode+persist. WithAsyncCheckpoint switches to a
// double-buffered pipeline: the master captures an in-memory copy at the
// barrier and releases it immediately, while a background writer encodes
// (in parallel, field by field) and persists through the Store. At most
// one snapshot is in flight — a newer capture supersedes one still parked
// behind the in-flight write — and the writer drains at Run/RunContext
// exit and before checkpoint-and-stop snapshots, which stay synchronous
// because they are the restart point. Write errors surface at the next
// safe point or at engine exit. Report splits the accounting: SaveTotal
// (blocked time), AsyncSaveTotal (overlapped background writes),
// DrainTotal and Superseded.
//
// # Incremental (delta) checkpointing
//
// WithDeltaCheckpoint(every, compactEvery) persists only what changed
// between captures: the engine hashes every SafeData field (in fixed-size
// chunks for large float slices and matrices) at each capture and writes a
// small PPCKPD1 delta — changed fields/chunks plus a reference to the
// chain's base snapshot — through Store.SaveDelta. Every compactEvery
// deltas the chain is compacted back into a full snapshot, bounding
// restart cost and disk usage. Restore (Store.LoadChain) replays base +
// deltas automatically, truncating at the first torn, missing or stale
// link, so every restart point is a consistent prefix of the chain; the
// materialised snapshot is an ordinary canonical snapshot, so cross-mode
// restart works unchanged. Deltas compose with WithAsyncCheckpoint: a
// capture superseded behind an in-flight write folds into the next one
// instead of being dropped. Report gains FullSaves, DeltaSaves and
// DeltaBytes.
//
// # Pluggable adaptation policies
//
// Run-time adaptation and checkpoint-and-stop are decided by an
// AdaptPolicy consulted at every safe point. Stock policies: AdaptAt
// (reshape at a safe point), StopAt (checkpoint-and-stop at a safe point,
// the paper's adaptation by restart), Schedule (a fixed sequence of
// reshapings) and Policies (chaining). Asynchronous, wall-clock sources —
// a resource manager granting or revoking nodes — call
// Engine.RequestAdapt / Engine.RequestStop instead, and WithAutoScale
// plugs the one stock feedback driver that does so. Decide sees
// deterministic RunStats, including checkpoint cadence counters
// (FullSaves/DeltaSaves/LastCheckpointSP) so a policy can, say, stop or
// migrate exactly at a freshly checkpointed safe point.
//
// # In-process cross-mode migration
//
// The engine's deployments are pluggable Executors (sequential, shared,
// distributed, hybrid). Returning an AdaptTarget with Mode set from a
// policy (or passing it to RequestAdapt) migrates the running program to
// another deployment at a safe point WITHOUT leaving Run: the engine takes
// a canonical snapshot, keeps a private copy of it in memory, tears down
// the current executor, builds the target-mode executor, and replays to the
// same safe point — the paper's adaptation-by-restart (Figures 6 and 7)
// collapsed into one process:
//
//	eng, _ := pp.New(factory,
//		pp.WithMode(pp.Shared), pp.WithThreads(8), pp.WithModules(mods...),
//		pp.WithAdaptAt(50, pp.AdaptTarget{Mode: pp.Distributed, Procs: 4}),
//	)
//	err := eng.Run() // starts on a thread team, finishes as 4 SPMD replicas
//
// Threads/Procs in the target size the new executor (0 inherits the current
// sizes). Plug the union of the modes' module sets: like a cross-mode
// restart, the target executor uses the partitioning/team advice of the
// mode it lands in (e.g. SORModules(pp.Hybrid) covers all four). Results
// are byte-identical to an unmigrated run. Migration
// composes with checkpointing — the regular chain keeps serving crash
// restarts and is re-based (next periodic save is a full snapshot) under
// the new executor — and with async/delta pipelines (the writer is drained
// before the migration snapshot). Custom Store implementations are not
// involved: migration uses an internal memory store. Report carries the
// cost split as Migrations and MigrationTotal.
//
// # Closed-loop elastic autoscaling
//
// WithAutoScale plugs a feedback controller that closes the adaptation
// loop the paper left manual: it measures the per-safe-point iteration
// rate from live RunStats, fits per-(Mode,Threads,Procs) time and
// efficiency curves against the analytic prior (internal/perfmodel,
// seasoned with the Task executor's queue-pressure counters), and issues
// a resize or cross-mode migration at a safe point only when the
// predicted saving over the remaining horizon clears the measured
// migration cost with hysteresis (confirmation windows + cooldown):
//
//	as := pp.NewAutoScale(pp.AutoScaleConfig{
//		MoveCost: 10 * time.Millisecond,
//		Capacity: churn.Capacity, // live (threads, procs) ceiling
//	})
//	eng, _ := pp.New(factory, pp.WithMode(pp.Shared), pp.WithThreads(8),
//		pp.WithModules(mods...), pp.WithAutoScale(as))
//	err := eng.Run()
//	for _, d := range as.Decisions() { ... } // the audit trail
//
// The Capacity feed is the cluster side of the loop: when it drops below
// the current shape (a node was lost), the very next safe point shrinks
// the run unconditionally — capacity shrinks bypass every profit gate,
// because the cores are gone either way — while regrowth after an arrival
// happens only once the fitted curves say the extra workers pay for the
// move. Decisions carry the predicted saving, the charged cost and a
// human-readable reason.
//
// # Lifecycle
//
// Engine.RunContext(ctx) runs under a context; cancellation maps to a
// graceful checkpoint-and-stop at the next safe point, after which the run
// returns *ErrStopped (wrapping the context cause) and a relaunched engine
// — in any mode — replays from the snapshot.
package pp

import (
	"ppar/internal/core"
	"ppar/internal/partition"
	"ppar/internal/team"
)

// Re-exported engine types; see ppar/internal/core for full documentation.
type (
	// App is a base program.
	App = core.App
	// Factory creates one application instance (one per replica in
	// distributed modes).
	Factory = core.Factory
	// Ctx is the execution context handed to the base program.
	Ctx = core.Ctx
	// Config assembles one deployment; an Option edits it.
	Config = core.Config
	// Engine executes one deployment.
	Engine = core.Engine
	// Module is one pluggable parallelisation/fault-tolerance module.
	Module = core.Module
	// Mode selects the plugged machinery.
	Mode = core.Mode
	// AdaptTarget describes a requested reshaping (or, with Stop set, a
	// checkpoint-and-stop).
	AdaptTarget = core.AdaptTarget
	// Report carries a run's measurements.
	Report = core.Report
	// ErrStopped reports a checkpoint-and-stop (adaptation by restart).
	ErrStopped = core.ErrStopped
	// DelayFunc models per-message link costs on the transport.
	DelayFunc = core.DelayFunc
)

// Deployment modes.
const (
	Sequential  = core.Sequential
	Shared      = core.Shared
	Distributed = core.Distributed
	Hybrid      = core.Hybrid
	// Task is the work-stealing many-task deployment: the Hybrid topology
	// with every work-sharing loop overdecomposed into WithOverdecompose(k)
	// chunks per worker, scheduled on per-worker deques with randomized
	// stealing, plus a cross-rank balancer that moves Block partition
	// boundaries between ranks at safe points. Stealing drains at each
	// loop's barrier, so checkpoints stay byte-identical to a static run.
	Task = core.Task
)

// Loop schedules (the for work-sharing construct).
const (
	Static      = team.Static
	StaticChunk = team.StaticChunk
	Dynamic     = team.Dynamic
	Guided      = team.Guided
)

// Partition kinds for PartitionedField.
const (
	Block       = partition.Block
	Cyclic      = partition.Cyclic
	BlockCyclic = partition.BlockCyclic
)

// ErrInjectedFailure reports that a configured failure injection fired.
var ErrInjectedFailure = core.ErrInjectedFailure

// NewModule creates an empty pluggable module.
func NewModule(name string) *Module { return core.NewModule(name) }

// ParseMode parses the mode names used by Mode.String: "seq", "smp", "dist",
// "hybrid" or "task".
func ParseMode(s string) (Mode, error) { return core.ParseMode(s) }

// For executes an advisable loop body per index.
func For(c *Ctx, id string, lo, hi int, body func(i int)) { core.For(c, id, lo, hi, body) }

// ForSpan executes an advisable loop over contiguous sub-ranges.
func ForSpan(c *Ctx, id string, lo, hi int, body func(lo, hi int)) {
	core.ForSpan(c, id, lo, hi, body)
}

// SumAll computes a deterministic global sum over all active lines of
// execution.
func SumAll(c *Ctx, v float64) float64 { return core.SumAll(c, v) }

// MaxAll computes a deterministic global maximum.
func MaxAll(c *Ctx, v float64) float64 { return core.MaxAll(c, v) }
