package pp

import "ppar/internal/core"

// Option configures one aspect of a deployment. Options are applied in
// order by New; later options win where they overlap.
type Option func(*core.Config)

// New builds an engine for one deployment of the base program, assembled
// from functional options:
//
//	eng, err := pp.New(factory,
//		pp.WithMode(pp.Hybrid), pp.WithProcs(4), pp.WithThreads(2),
//		pp.WithModules(smp, ckpt),
//		pp.WithStore(pp.NewMemStore()), pp.WithCheckpointEvery(10),
//	)
//
// With no options it is the unplugged sequential deployment.
func New(factory Factory, opts ...Option) (*Engine, error) {
	var cfg core.Config
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	return core.New(cfg, factory)
}

// WithName identifies checkpoint snapshots and the run ledger; two runs
// that must see each other's checkpoints need the same name (default
// "app").
func WithName(name string) Option {
	return func(c *core.Config) { c.AppName = name }
}

// WithMode selects the plugged machinery: Sequential, Shared, Distributed,
// Hybrid or Task.
func WithMode(m Mode) Option {
	return func(c *core.Config) { c.Mode = m }
}

// WithOverdecompose sets the Task-mode chunking factor k: every work-sharing
// loop is split into k chunks per worker (default 8), seeded on per-worker
// deques and balanced by randomized stealing. Larger k smooths skew at the
// cost of per-chunk overhead; k is recorded in checkpoints' shard manifests
// only through the resulting boundaries, so a run may restart under a
// different k. Ignored outside Task mode.
func WithOverdecompose(k int) Option {
	return func(c *core.Config) { c.Overdecompose = k }
}

// WithThreads sets the team size for Shared and Hybrid deployments.
func WithThreads(n int) Option {
	return func(c *core.Config) { c.Threads = n }
}

// WithProcs sets the world size for Distributed and Hybrid deployments.
func WithProcs(n int) Option {
	return func(c *core.Config) { c.Procs = n }
}

// WithTCP selects the TCP transport for distributed modes (default: the
// in-process transport, which also supports run-time world resizing).
func WithTCP() Option {
	return func(c *core.Config) { c.TCP = true }
}

// WithDelay injects modelled link costs into the transport.
func WithDelay(d DelayFunc) Option {
	return func(c *core.Config) { c.Delay = d }
}

// WithModules plugs parallelisation/fault-tolerance modules onto the base
// program. Repeated uses accumulate.
func WithModules(mods ...*Module) Option {
	return func(c *core.Config) { c.Modules = append(c.Modules, mods...) }
}

// WithStore selects the checkpoint backend and enables checkpointing. See
// NewFSStore, NewMemStore and NewGzipStore for the stock implementations.
func WithStore(s Store) Option {
	return func(c *core.Config) { c.Store = s }
}

// WithCheckpointDir enables checkpointing into a filesystem store rooted at
// dir — sugar for WithStore over the stock filesystem backend.
func WithCheckpointDir(dir string) Option {
	return func(c *core.Config) { c.CheckpointDir = dir }
}

// WithCheckpointEvery takes a snapshot each time the safe-point count is a
// multiple of every (0 disables periodic checkpoints).
func WithCheckpointEvery(every uint64) Option {
	return func(c *core.Config) { c.CheckpointEvery = every }
}

// WithMaxCheckpoints caps the number of periodic snapshots (0 = no cap).
func WithMaxCheckpoints(n int) Option {
	return func(c *core.Config) { c.MaxCheckpoints = n }
}

// WithShardCheckpoints selects the paper's first distributed alternative:
// each process persists a local snapshot between two barriers, so
// checkpoint I/O parallelises across ranks instead of funnelling through
// the master. Shard saves are per-rank append-only chains committed by a
// manifest written after every shard of a save wave has landed — a
// mid-write kill never restarts from a torn multi-shard save — and each
// shard records how its fields were partitioned, so a sharded run restarts
// (or migrates) into a different world size or execution mode by
// repartitioning at load; same-topology restarts keep the per-rank
// parallel restore.
//
// Composes with WithAsyncCheckpoint (per-rank captures persist through a
// bounded background pool, the wave's manifest committed when the last
// shard lands) and WithDeltaCheckpoint (each rank keeps its own hash cache
// and chain: anchor links every compactEvery captures, changed chunks in
// between). Checkpoint-and-stop snapshots remain canonical. Report gains
// ShardSaves/ShardBytes; prefer shard checkpoints when per-rank state is
// large and store bandwidth scales with writers (per-rank files, object
// stores), and the gather-at-master canonical snapshot when state is small
// or the store serialises writers anyway.
func WithShardCheckpoints() Option {
	return func(c *core.Config) { c.ShardCheckpoints = true }
}

// WithAsyncCheckpoint enables the asynchronous double-buffered checkpoint
// pipeline (default off): at the safe point the master only captures an
// in-memory copy of the safe data and releases the barrier immediately; a
// background writer encodes and persists the copy through the Store while
// computation proceeds. At most one snapshot is in flight — a newer capture
// supersedes one still parked behind the in-flight write. The writer drains
// at Run/RunContext exit and before checkpoint-and-stop snapshots (which
// stay synchronous: they are the restart point); write errors surface at
// the next safe point or at engine exit. With WithShardCheckpoints the
// same double-buffer protocol runs per rank, through a bounded background
// pool.
func WithAsyncCheckpoint() Option {
	return func(c *core.Config) { c.AsyncCheckpoint = true }
}

// WithDeltaCheckpoint enables incremental (delta) checkpointing and takes
// a capture every `every` safe points: the engine keeps per-field content
// hashes — chunk hashes for large float slices and matrices — from the
// previous capture, and persists only the fields/chunks that changed, as a
// PPCKPD1 delta chained onto the last full snapshot. Every compactEvery
// deltas (default 8 when <= 0) the chain is compacted back into a full
// PPCKPT1 snapshot, so restart cost and disk usage stay bounded and
// cross-mode restart always materialises from a canonical snapshot.
// Restore replays base + chain automatically and tolerates torn or
// half-written links by truncating to the last consistent prefix.
//
// Composes with WithAsyncCheckpoint: delta captures then deep-copy only
// the changed chunks at the barrier, and a capture superseded behind an
// in-flight write is folded into the next one (never dropped — a delta
// only carries what changed since the previous capture). Composes with
// WithShardCheckpoints too: each rank keeps its own hash cache and chain,
// diffing its packed shard state. Report splits the accounting into
// FullSaves/DeltaSaves/DeltaBytes.
//
// The win scales with how much of the safe data is stable between
// captures: a workload rewriting its whole state every iteration saves
// little, one with localised updates saves almost everything.
func WithDeltaCheckpoint(every uint64, compactEvery int) Option {
	return func(c *core.Config) {
		c.CheckpointEvery = every
		c.DeltaCheckpoint = true
		c.DeltaCompactEvery = compactEvery
	}
}

// WithAdaptPolicy consults p at every safe point to decide run-time
// adaptations and checkpoint-and-stop. Repeated uses (and the sugar
// WithAdaptAt/WithStopAt) chain; the first non-zero decision wins.
func WithAdaptPolicy(p AdaptPolicy) Option {
	return func(c *core.Config) {
		if c.Policy == nil {
			c.Policy = p
			return
		}
		c.Policy = core.Policies(c.Policy, p)
	}
}

// WithAdaptAt schedules one run-time adaptation at an absolute safe point —
// sugar for WithAdaptPolicy(AdaptAt(sp, target)), so repeated uses chain.
// A target with Mode set migrates the run to another deployment in-process
// (see the package documentation); one without reshapes in place. An
// in-place target the executor cannot honour (resizing a Sequential run, or
// a Hybrid or TCP world) aborts the run with a descriptive error naming the
// migration alternative when it fires. sp 0 is a no-op.
func WithAdaptAt(sp uint64, target AdaptTarget) Option {
	if sp == 0 {
		return nil
	}
	return WithAdaptPolicy(core.AdaptAt(sp, target))
}

// WithStopAt takes a canonical checkpoint at the given safe point and stops
// the run — the paper's adaptation by restart; sugar for
// WithAdaptPolicy(StopAt(sp)), so repeated uses chain. sp 0 is a no-op.
func WithStopAt(sp uint64) Option {
	if sp == 0 {
		return nil
	}
	return WithAdaptPolicy(core.StopAt(sp))
}

// WithAdaptNotify registers fn, invoked once per applied reshaping — an
// in-place thread/world resize or an in-process cross-mode migration —
// after the new topology is in effect, with the safe point it was applied
// at and the resulting mode/team/world sizes. It runs on the coordinating
// line of execution between safe points, so it must not block on the
// engine; external schedulers (the fleet supervisor) use it to learn when
// a requested resize actually landed and give the freed budget away.
func WithAdaptNotify(fn func(sp uint64, mode Mode, threads, procs int)) Option {
	return func(c *core.Config) { c.OnAdapt = fn }
}

// WithFailureAt injects a process failure at the given safe point, on rank
// in distributed modes — the fault-injection harness used to exercise
// restart. The ledger is left dirty so the next run replays from the last
// checkpoint.
func WithFailureAt(sp uint64, rank int) Option {
	return func(c *core.Config) { c.FailAtSafePoint, c.FailRank = sp, rank }
}
