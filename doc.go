// Module ppar reproduces "Checkpoint and Run-Time Adaptation with Pluggable
// Parallelisation" (Medeiros & Sobral, ICPP 2011) as a production-quality Go
// library.
//
// Start with package ppar/pp, the public API: engines are assembled from
// functional options (pp.New(factory, pp.WithMode(...), pp.WithThreads(...),
// pp.WithModules(...), ...)); checkpoint transport is a pluggable pp.Store
// (filesystem, in-memory, or gzip-compressing wrapper, selected with
// pp.WithStore); checkpointing is synchronous at the safe-point barrier by
// default, asynchronous and double-buffered with pp.WithAsyncCheckpoint
// (capture at the barrier, encode+persist overlapped with computation), or
// incremental with pp.WithDeltaCheckpoint (persist only the fields/chunks
// whose content hash changed, as a delta chain compacted back into a full
// snapshot every K links — see the migration note in CHANGES.md); run-time
// adaptation and checkpoint-and-stop are decided by a pluggable
// pp.AdaptPolicy (pp.WithAdaptPolicy); and runs are context-aware
// (Engine.RunContext maps cancellation to a graceful checkpoint-and-stop
// that a relaunched engine resumes from, in any mode).
//
// Distributed runs choose between two checkpoint shapes. The default
// gathers partitioned state at the master into one canonical snapshot —
// smallest metadata, restartable anywhere, but the master serialises the
// I/O. pp.WithShardCheckpoints instead has every rank persist its own
// shard as an append-only chain (anchor links plus changed-chunk deltas
// under WithDeltaCheckpoint), committed by a PPCKPS1 manifest written
// after the last shard of each wave lands — so checkpoint bandwidth scales
// with the number of ranks, a mid-write kill never restarts from a torn
// multi-shard save, and because each shard records its partition layouts,
// a sharded run restarts or migrates into a different world size or
// execution mode by repartitioning at load (the shard-reshard example
// runs the whole story). Both shapes compose with the asynchronous and
// incremental pipelines; prefer shards when per-rank state is large and
// the store scales with writers, the canonical gather when state is small
// or the store serialises writers anyway.
//
// The serialization under every one of those pipelines is reflection-free
// on the hot path: the first engine built over a given application type
// and SafeData field set compiles the shape once — a registry of typed
// field accessors keyed by the struct type plus the bound names — and
// every later capture, encode and restore walks those descriptors with
// pooled buffers (sync.Pool-backed capture snapshots, encoder scratch and
// delta chunk payloads recycled across safe points), so a steady-state
// checkpoint allocates near zero. On top of the byte savings of the delta
// pipeline, pp.NewDedupStore wraps any store with content-addressed
// deduplication: large float fields are split on the delta differ's chunk
// grid, each distinct chunk content is stored once under its content key
// with a refcount, and DedupStore.Stats reports the logical-over-physical
// ratio. Dedup pays when consecutive checkpoints, shard ranks or tenants
// (through pp.NamespacedStore, whose chunk keys deliberately pass through
// unprefixed) repeat chunk content — mostly-stable state between captures,
// replicated state across ranks, identical workloads across tenants; it
// only costs hashing when every chunk is new, and small fields bypass it
// entirely. Compose it outermost (dedup of a gzip store, not the reverse)
// so whole-artifact envelopes don't hide the float payloads from the
// chunker.
//
// The execution core itself is a pluggable Executor layer: one executor per
// deployment (sequential, shared, distributed, hybrid, task) owns launch,
// topology, collectives and teardown. A policy returning an AdaptTarget
// with Mode set migrates the running program across deployments at a safe
// point inside a single Run call — snapshot to an internal memory store,
// executor swap, replay — the paper's adaptation-by-restart without the
// restart (the mode-migrate example demonstrates it live).
//
// The fifth deployment, pp.Task, is the work-stealing many-task executor
// for skewed workloads: each rank's partition is overdecomposed into
// pp.WithOverdecompose(k) chunks per worker (default 8), chunks start on
// per-worker deques in Static order and idle workers steal from the back of
// random victims, so a hot band of the index space spreads over the team
// instead of parking on whoever owned it statically. Across ranks a
// balancer samples per-rank loop throughput at safe points and moves Block
// partition boundaries toward starved ranks (bounds travel in checkpoints
// and shard manifests, so restarts and migrations preserve them). Stealing
// drains at the loop barrier — a safe point always sees a deterministic
// assignment — so checkpoints stay byte-identical to a static run, restart
// composes across differing k, and Task migrates to and from every other
// mode. Report.Sched() exposes the chunk/steal/idle counters; `go run
// ./cmd/ppbench -skew` compares the executor against the static smp
// schedule on the skewed crypt and sparse kernels.
//
// Above single engines sits the fleet layer (internal/fleet, served by the
// ppserve command): a Supervisor hosts many concurrent runs in one process,
// each job checkpointing into its own tenant-prefixed namespace of one
// shared pp.Store (pp.NamespacedStore). Jobs are submitted as declarative
// JobSpecs against registered workload factories, scheduled by priority
// against a machine budget with per-tenant quotas, and — when malleable —
// shrunk and regrown at safe points via the engine's run-time adaptation,
// so a high-priority arrival squeezes a low-priority running job instead of
// waiting for it. Every accepted spec is journalled through the store
// before it is acknowledged: after a crash (kill -9 included) a restarted
// supervisor re-admits every unfinished job and resumes it from its newest
// checkpoint. ppserve exposes the supervisor over HTTP (POST /jobs,
// GET /jobs/{id}, DELETE /jobs/{id} for checkpoint-and-stop, GET /status);
// the fleet example walks the whole story in-process.
//
// DESIGN.md names one concept per concern — the adaptation entry among
// them: policies plus Engine.RequestAdapt for scripted and asynchronous
// requests, WithAutoScale as the only driver. The benchmarks in
// bench_test.go regenerate each figure of the paper's evaluation; the
// ppbench command prints them as tables, and ppsor runs the SOR benchmark
// under any deployment from the command line (including -store=fs|mem|gzip
// backend selection and -async/-delta checkpointing). The benchjson
// command turns `go test -bench` output into the BENCH_*.json documents
// CI uploads as the perf trajectory.
//
// The runtime's cross-cutting contracts — AdaptPolicy.Decide purity,
// deterministic serialization, collectives reached by every team member,
// atomic store writes in wave order, no blocking work under the Engine or
// Supervisor lock — are machine-checked by the pplint command (backed by
// internal/analysis) and enforced in CI: run `go run ./cmd/pplint ./...`,
// and annotate a justified protocol exemption with
// `//lint:ignore <analyzer> <reason>` on the line above the finding.
package ppar
