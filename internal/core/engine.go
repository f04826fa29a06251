package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ppar/internal/ckpt"
	"ppar/internal/metrics"
	"ppar/internal/mp"
	"ppar/internal/serial"
	"ppar/internal/team"
)

// Mode selects which parallelisation machinery is plugged in. The same base
// program runs under every mode — the paper's central claim. The zero value
// is deliberately not a mode: in AdaptTarget.Mode it means "unchanged", and
// a zero Config.Mode is normalised to Sequential.
type Mode int

const (
	// Sequential runs the base code with no machinery at all: Call is a
	// plain function call, For a plain loop (the "unplugged" deployment).
	Sequential Mode = iota + 1
	// Shared plugs the thread-team machinery: ParallelMethod regions
	// execute on a team of Config.Threads workers.
	Shared
	// Distributed plugs the object-aggregate machinery: Config.Procs SPMD
	// replicas over a message-passing world.
	Distributed
	// Hybrid plugs both: Procs replicas, each running regions on teams of
	// Threads workers.
	Hybrid
	// Task plugs the many-task machinery: the same topology as Hybrid, but
	// work-sharing loops are overdecomposed into Config.Overdecompose chunks
	// per worker and scheduled by randomized work stealing, and a cross-rank
	// rebalancer may move Block partition boundaries between ranks at safe
	// points. With Procs == 1 it degenerates to a work-stealing Shared
	// deployment.
	Task
)

// validMode reports whether m names one of the five deployments.
func validMode(m Mode) bool { return m >= Sequential && m <= Task }

// String names the mode as the paper does (LE = lines of execution,
// P = processes).
func (m Mode) String() string {
	switch m {
	case Sequential:
		return "seq"
	case Shared:
		return "smp"
	case Distributed:
		return "dist"
	case Hybrid:
		return "hybrid"
	case Task:
		return "task"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode parses the paper-style mode names used by Mode.String
// ("seq", "smp", "dist", "hybrid", "task").
func ParseMode(s string) (Mode, error) {
	for m := Sequential; m <= Task; m++ {
		if s == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("core: unknown mode %q (want seq, smp, dist, hybrid or task)", s)
}

// MarshalText encodes the mode symbolically ("seq", "smp", "dist",
// "hybrid"), so job specs and status payloads carry mode names instead of
// bare ints. The zero Mode — "unset" in AdaptTarget-style structs —
// encodes as the empty string; modes outside the known range refuse to
// marshal rather than emit a name no parser accepts.
func (m Mode) MarshalText() ([]byte, error) {
	if m == 0 {
		return []byte(nil), nil
	}
	if !validMode(m) {
		return nil, fmt.Errorf("core: cannot marshal unknown mode %d", int(m))
	}
	return []byte(m.String()), nil
}

// UnmarshalText parses the names accepted by ParseMode; the empty string
// decodes to the zero ("unset") Mode, matching MarshalText.
func (m *Mode) UnmarshalText(text []byte) error {
	if len(text) == 0 {
		*m = 0
		return nil
	}
	v, err := ParseMode(string(text))
	if err != nil {
		return err
	}
	*m = v
	return nil
}

// App is a base program: plain domain-specific code whose advisable methods
// run through ctx.Call and loops through For.
type App interface {
	Main(ctx *Ctx)
}

// Factory creates a fresh application instance. Distributed modes call it
// once per rank, mirroring the paper's aggregates ("a class of objects that
// have a single instance on each node").
type Factory func() App

// AdaptTarget describes a requested reshaping of the parallelism structure.
// The zero value requests nothing.
type AdaptTarget struct {
	// Threads is the desired team size (0 = unchanged).
	Threads int
	// Procs is the desired world size (0 = unchanged).
	Procs int
	// Mode, when non-zero and different from the current mode, requests an
	// in-process cross-mode migration at the safe point: the engine takes a
	// canonical snapshot, keeps a private copy of it in memory, tears down
	// the current executor, constructs the target-mode executor inside the same
	// Run/RunContext call, and replays to the same safe point — the paper's
	// adaptation-by-restart (Figures 6 and 7) without the restart. Threads
	// and Procs then size the new executor (0 = inherit the current sizes).
	// A Mode equal to the current mode is a plain in-place reshaping.
	Mode Mode
	// Stop requests a canonical checkpoint followed by a stop of the run —
	// the paper's adaptation-by-restart: the caller relaunches a
	// differently-configured engine which replays from the snapshot
	// (Figures 6 and 7). When Stop is set, Threads/Procs/Mode are ignored.
	Stop bool
}

// IsZero reports whether the target requests no change at all.
func (t AdaptTarget) IsZero() bool {
	return !t.Stop && t.Threads == 0 && t.Procs == 0 && t.Mode == 0
}

// DelayFunc models per-message link costs on the transport.
type DelayFunc = mp.DelayFunc

// Config assembles one deployment of a base program.
type Config struct {
	// AppName identifies checkpoint files and the run ledger.
	AppName string
	// Mode, Threads, Procs select the plugged machinery.
	Mode    Mode
	Threads int
	Procs   int
	// Overdecompose is the Task-mode chunking factor k: each work-sharing
	// loop is split into k chunks per worker and scheduled by work stealing
	// (<= 0 selects the default of 8). Ignored by the other modes.
	Overdecompose int
	// TCP selects the TCP transport for distributed modes (default: the
	// in-process transport, which also supports run-time world resizing).
	TCP bool
	// Delay optionally injects modelled link costs into the transport.
	Delay mp.DelayFunc
	// Modules are the pluggable parallelisation/fault-tolerance modules.
	Modules []*Module

	// Store, when non-nil, is the pluggable checkpoint backend. Set it to
	// an in-memory or compressing store (or any custom implementation) to
	// decouple checkpointing from the filesystem.
	Store ckpt.Store
	// CheckpointDir is sugar for Store: when Store is nil and
	// CheckpointDir is non-empty, a filesystem store rooted there is used.
	// Either one enables checkpointing.
	CheckpointDir string
	// CheckpointEvery takes a snapshot each time the safe-point count is a
	// multiple of this value (0 disables periodic checkpoints).
	CheckpointEvery uint64
	// MaxCheckpoints caps the number of periodic snapshots (0 = no cap).
	// The decision is a pure function of the safe-point count so that all
	// ranks/threads agree without synchronising.
	MaxCheckpoints int
	// ShardCheckpoints selects the paper's first distributed alternative —
	// each process persists a local snapshot between two barriers, in
	// parallel — instead of the default gather-at-master canonical
	// snapshot. Shard saves are per-rank append-only chains gated by a
	// commit manifest written after every shard of a save wave has landed,
	// so a mid-write kill never restarts from a torn multi-shard save; and
	// because each shard records how its fields were partitioned, a
	// sharded run can restart (or migrate) into a different world size or
	// execution mode by repartitioning at load. Composes with
	// AsyncCheckpoint (captures persist through a bounded background pool)
	// and DeltaCheckpoint (each rank keeps its own hash cache and chain).
	ShardCheckpoints bool
	// AsyncCheckpoint enables the asynchronous double-buffered checkpoint
	// pipeline: at the safe point the master only captures an in-memory
	// copy of the safe data and releases the barrier immediately; a
	// background writer encodes and persists the copy through the Store
	// while computation proceeds. At most one snapshot is in flight — a
	// newer capture supersedes one still parked behind the in-flight
	// write. The writer is drained at Run/RunContext exit and before
	// checkpoint-and-stop snapshots (which stay synchronous: they are the
	// restart point); write errors surface at the next safe point the
	// coordinator reaches or at engine exit. With ShardCheckpoints the
	// same double-buffer protocol runs per rank: captures persist through
	// a bounded worker pool and the wave's commit manifest is written when
	// the last shard lands.
	AsyncCheckpoint bool
	// DeltaCheckpoint enables incremental checkpointing: the engine keeps
	// per-field content hashes (chunk hashes for large float fields) from
	// the previous capture and persists only what changed, as a PPCKPD1
	// delta chained onto the last full snapshot. Every DeltaCompactEvery
	// deltas the chain is compacted back into a full PPCKPT1 snapshot, so
	// restart cost and disk usage stay bounded and cross-mode restart
	// always has a materialisable canonical snapshot. Composes with
	// AsyncCheckpoint (delta captures clone only the changed chunks; a
	// capture superseded behind an in-flight write folds into the next
	// one) and with ShardCheckpoints (each rank keeps its own hash cache
	// and chain, and compaction re-anchors every chain in lockstep).
	DeltaCheckpoint bool
	// DeltaCompactEvery is the number of deltas between full snapshots
	// (default 8 when DeltaCheckpoint is set).
	DeltaCompactEvery int

	// Policy, when non-nil, is consulted at every safe point to decide
	// run-time adaptations and checkpoint-and-stop (see AdaptPolicy).
	Policy AdaptPolicy
	// OnAdapt, when non-nil, is invoked once per applied reshaping — an
	// in-place thread/world resize or an in-process cross-mode migration —
	// after the new topology is in effect, with the safe point it was
	// applied at and the resulting mode/team/world sizes. It runs on the
	// coordinating line of execution between safe points, so it must not
	// block on the engine; external schedulers (the fleet supervisor) use
	// it to learn when a requested resize actually landed and re-budget.
	OnAdapt func(sp uint64, mode Mode, threads, procs int)
	// Driver, when non-nil, is started when the run starts and stopped
	// when it ends. It is an external resource manager feeding
	// RequestAdapt/RequestStop from outside the deterministic policy path
	// (ppar/internal/autoscale.AutoScale implements it).
	Driver AdaptDriver

	// FailAtSafePoint injects a failure (process death) at the given safe
	// point, on rank FailRank in distributed modes. The ledger is left
	// dirty so the next run restarts from the last checkpoint.
	FailAtSafePoint uint64
	FailRank        int
}

func (c *Config) normalize() error {
	if c.AppName == "" {
		c.AppName = "app"
	}
	if c.Threads < 1 {
		c.Threads = 1
	}
	if c.Procs < 1 {
		c.Procs = 1
	}
	switch c.Mode {
	case 0:
		// The zero Config is the unplugged sequential deployment.
		c.Mode = Sequential
		c.Threads, c.Procs = 1, 1
	case Sequential:
		c.Threads, c.Procs = 1, 1
	case Shared:
		c.Procs = 1
	case Distributed:
		c.Threads = 1
	case Hybrid:
	case Task:
	default:
		return fmt.Errorf("core: unknown mode %d", int(c.Mode))
	}
	if c.Overdecompose <= 0 {
		c.Overdecompose = 8
	}
	if c.DeltaCheckpoint && c.CheckpointEvery == 0 {
		// Silently taking zero checkpoints would make the option a no-op;
		// incremental checkpointing only means something periodically.
		return errors.New("core: DeltaCheckpoint requires CheckpointEvery > 0 (pass the interval to WithDeltaCheckpoint)")
	}
	if c.DeltaCheckpoint && c.DeltaCompactEvery <= 0 {
		c.DeltaCompactEvery = 8
	}
	return nil
}

// Report carries the measurements the figure harness consumes. The JSON
// field names are stable — status endpoints and benchmark tooling parse
// them — and time.Duration fields marshal as integer nanoseconds.
type Report struct {
	SafePoints  uint64        `json:"safe_points"` // safe points executed by the master
	Checkpoints int           `json:"checkpoints"` // snapshots persisted
	SaveTotal   time.Duration `json:"save_total"`  // time lines of execution were blocked in save protocols (sync: gather+encode+persist; async: gather+capture only)
	SaveBytes   int           `json:"save_bytes"`  // payload bytes of the last snapshot
	LoadTotal   time.Duration `json:"load_total"`  // time restoring data at the replay target
	ReplayTime  time.Duration `json:"replay_time"` // launch or relaunch start -> replay target reached (excl. load), summed over loads
	Elapsed     time.Duration `json:"elapsed"`     // total wall time of Run
	Adapted     bool          `json:"adapted"`     // a run-time adaptation was applied
	Stopped     bool          `json:"stopped"`     // checkpointed and stopped (StopAt policy, RequestStop or cancellation)
	StoppedAt   uint64        `json:"stopped_at"`
	Failed      bool          `json:"failed"`    // an injected failure occurred
	Restarted   bool          `json:"restarted"` // this run replayed from a checkpoint

	// In-process cross-mode migration measurements (AdaptTarget.Mode).
	Migrations     int           `json:"migrations"`      // executor migrations performed inside this Run
	MigrationTotal time.Duration `json:"migration_total"` // snapshot capture -> replay target reached under the new executor, summed over migrations

	// Asynchronous checkpoint pipeline measurements (AsyncCheckpoint).
	CaptureTotal   time.Duration `json:"capture_total"`    // blocked time capturing double buffers (a subset of SaveTotal)
	AsyncSaveTotal time.Duration `json:"async_save_total"` // background encode+persist time, overlapped with computation
	DrainTotal     time.Duration `json:"drain_total"`      // blocked time draining the writer (stop snapshots and engine exit)
	Superseded     int           `json:"superseded"`       // captures superseded (full) or folded (delta) before being persisted

	// Incremental checkpoint measurements (DeltaCheckpoint).
	FullSaves  int `json:"full_saves"`  // full snapshots persisted (chain bases, compactions, stop snapshots)
	DeltaSaves int `json:"delta_saves"` // delta links persisted
	DeltaBytes int `json:"delta_bytes"` // cumulative payload bytes across all persisted deltas

	// Shard checkpoint measurements (ShardCheckpoints). A committed wave
	// counts once in Checkpoints; ShardSaves counts its per-rank links.
	ShardSaves int `json:"shard_saves"` // shard chain links persisted across all committed waves
	ShardBytes int `json:"shard_bytes"` // cumulative payload bytes across those links

	// Task-mode scheduler measurements (Mode Task). The chunk/steal/idle
	// counters are timing-dependent (they depend on which worker won each
	// race), so they live here and in the metrics surface, never in RunStats.
	TaskChunks int64 `json:"task_chunks"` // chunks scheduled by ForTask loops
	Steals     int64 `json:"steals"`      // chunks executed by a non-home worker
	StealIdle  int64 `json:"steal_idle"`  // steal probes that found an empty deque
	Rebalances int   `json:"rebalances"`  // cross-rank partition rebalances applied
}

// Sched bundles the Task-mode scheduler counters as a metrics.SchedStats —
// the derived-ratio surface the autoscaling policy consumes.
func (r Report) Sched() metrics.SchedStats {
	return metrics.SchedStats{
		Chunks:     r.TaskChunks,
		Steals:     r.Steals,
		Idle:       r.StealIdle,
		Rebalances: r.Rebalances,
	}
}

// ErrInjectedFailure reports that the configured failure fired.
var ErrInjectedFailure = errors.New("core: injected failure")

// ErrStopped reports that the run checkpointed and stopped for
// adaptation-by-restart. When the stop was triggered by context
// cancellation, Cause carries the context's cause so that
// errors.Is(err, context.Canceled) (or DeadlineExceeded) holds.
type ErrStopped struct {
	SafePoint uint64
	Cause     error
}

func (e *ErrStopped) Error() string {
	msg := fmt.Sprintf("core: run checkpointed and stopped at safe point %d for adaptation by restart", e.SafePoint)
	if e.Cause != nil {
		msg += ": " + e.Cause.Error()
	}
	return msg
}

// Unwrap exposes the cancellation cause, if any.
func (e *ErrStopped) Unwrap() error { return e.Cause }

type stopToken struct{ sp uint64 }
type failToken struct {
	sp   uint64
	rank int
}

// abortToken unwinds a line of execution on an unrecoverable configuration
// or protocol error (e.g. a shard checkpoint restarted with a different
// world size). Unlike failToken it surfaces as an error from Run; like it,
// the transport is torn down so no sibling blocks forever.
type abortToken struct{ msg string }

// smpJoin coordinates thread-team expansion.
type smpJoin struct {
	ready chan *Ctx
	gate  chan struct{}
	sp    uint64 // absolute safe point of the adaptation
}

// Engine executes one deployment.
type Engine struct {
	cfg     Config
	factory Factory
	adv     *adviceTable

	store   ckpt.Store
	sink    *ckptSink     // chain-aware persist side (seq assignment, compaction)
	tracker *deltaTracker // capture-side hash cache (DeltaCheckpoint)
	aw      *asyncWriter  // background canonical writer (AsyncCheckpoint)
	ssink   *shardSink    // per-rank chain persist side (ShardCheckpoints)
	sw      *shardWriter  // background shard pool (AsyncCheckpoint + ShardCheckpoints)

	resumeSnap   *serial.Snapshot   // replay source: crash restart or migration
	shardSnaps   []*serial.Snapshot // same-topology shard restart: per-rank materialised chains
	replayTarget uint64
	restarted    bool // this Run replayed from a persisted checkpoint

	// exec is the live deployment machinery. It is swapped only between
	// launches (no line of execution is running), so Ctx reads need no
	// synchronisation beyond goroutine creation order.
	exec Executor
	// curMode/curThreads/curProcs track the topology the NEXT executor is
	// built with; adaptations and migrations update them.
	curMode    Mode
	curThreads atomic.Int64
	curProcs   atomic.Int64

	scheduled atomic.Uint64
	pending   atomic.Pointer[AdaptTarget]
	migration atomic.Pointer[migrationSpec]

	// liveSP/liveMode publish the coordinator's progress for external
	// observers (Progress): the newest safe point executed and the mode it
	// executed under. They exist because Report.SafePoints only lands when
	// a launch ends, while an adaptation driver needs to watch throughput
	// while the run is in flight. liveMode mirrors curMode, which is only
	// written between launches and so needs no synchronisation for the
	// engine itself — but Progress is called from foreign goroutines.
	liveSP   atomic.Uint64
	liveMode atomic.Int64

	syncMu sync.Mutex
	crits  map[string]*sync.Mutex

	stopped   atomic.Pointer[stopToken]
	failed    atomic.Bool
	cancelled atomic.Bool

	repMu    sync.Mutex
	report   Report
	started  time.Time
	launched time.Time // start of the current launch; written between launches
	migStart time.Time // capture time of an in-flight migration (repMu)
}

// New builds an engine for one deployment of the base program.
func New(cfg Config, factory Factory) (*Engine, error) {
	if factory == nil {
		return nil, errors.New("core: nil factory")
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:     cfg,
		factory: factory,
		adv:     mergeModules(cfg.Modules),
		crits:   map[string]*sync.Mutex{},
	}
	e.curMode = cfg.Mode
	e.curThreads.Store(int64(cfg.Threads))
	e.curProcs.Store(int64(cfg.Procs))
	e.liveMode.Store(int64(cfg.Mode))
	return e, nil
}

// Progress reports the run's live position for external observers: the
// newest safe point the coordinator has executed and the topology it
// executed under. Unlike Report (whose SafePoints lands only when a launch
// ends) Progress moves while the run is in flight, so an adaptation driver
// — the autoscaler, a resource manager — can measure throughput online:
// sample (sp, time) pairs and divide. During a replay (crash restart or an
// in-process migration) the safe-point counter parks at its pre-replay
// value until execution passes the replay target, so a driver sees replays
// as a stall, never as backwards progress. Safe for concurrent use.
func (e *Engine) Progress() (sp uint64, mode Mode, threads, procs int) {
	return e.liveSP.Load(), Mode(e.liveMode.Load()),
		int(e.curThreads.Load()), int(e.curProcs.Load())
}

// RequestAdapt asks for a run-time adaptation — the path a resource
// manager uses when "availability of new resources" is detected (§I). The
// coordinator schedules it for the safe point after the one where it
// notices the request (a request made before Run lands at safe point 2).
// Ranks only synchronise their safe-point counters at collectives, so in
// comm-coupled modes stops, migrations and world resizes are aligned to the
// checkpoint cadence instead, and a world resize is serviced as an
// in-process relaunch into the same mode (it counts in Report.Migrations);
// an AdaptPolicy (AdaptAt, Schedule, ...) resizes the world in place.
// Without a due checkpoint to align to, such a world resize aborts the run
// (its gather could take a racing rank's later rows), and a stop or
// migration is served at the next safe point, which a rank with no
// collective since may already have passed. A target with Stop set is a
// graceful checkpoint-and-stop request (see RequestStop); one with Mode
// set is an in-process cross-mode migration (see AdaptTarget.Mode).
func (e *Engine) RequestAdapt(t AdaptTarget) {
	e.pending.Store(&t)
}

// RequestStop asks the run to take a canonical checkpoint and stop at the
// next safe point the coordinator reaches — programmatic graceful shutdown,
// equivalent to cancelling the context passed to RunContext.
func (e *Engine) RequestStop() {
	e.cancelled.Store(true)
}

// Report returns the measurements collected by the last Run.
func (e *Engine) Report() Report {
	e.repMu.Lock()
	defer e.repMu.Unlock()
	return e.report
}

// Run executes the deployment to completion, restart, stop or failure.
func (e *Engine) Run() error { return e.RunContext(context.Background()) }

// RunContext is Run under a context. Cancellation maps to graceful
// checkpoint-and-stop: at the next safe point the coordinator reaches, a
// canonical snapshot is taken (if a store is configured) and every line of
// execution unwinds; RunContext then returns an *ErrStopped wrapping the
// context's cause, and a relaunched engine replays from the snapshot. In
// distributed modes the stop is scheduled at the coordinator's next safe
// point, so — like RequestAdapt — it relies on ranks keeping in loose
// lockstep through the application's collectives.
func (e *Engine) RunContext(ctx context.Context) error {
	e.started = time.Now()
	defer func() {
		e.repMu.Lock()
		e.report.Elapsed = time.Since(e.started)
		e.repMu.Unlock()
	}()
	if e.cfg.Store != nil || e.cfg.CheckpointDir != "" {
		if err := e.openCheckpointing(); err != nil {
			return err
		}
		if err := e.store.LedgerStart(e.cfg.AppName); err != nil {
			return err
		}
		if e.cfg.AsyncCheckpoint {
			// The canonical writer is created even for shard-configured
			// runs: a sharded run re-sharded (or migrated) into a
			// non-distributed mode takes canonical periodic snapshots, and
			// the async request must keep applying to them rather than
			// silently degrading to blocking saves.
			e.aw = newAsyncWriter(e.sink, e.recordAsyncSave, e.recordSuperseded)
			if e.cfg.ShardCheckpoints {
				e.sw = newShardWriter(e.ssink, shardWriterPool(e.cfg.Procs), e.recordShardAsyncSave, e.recordSuperseded)
			}
		}
	}
	if ctx.Err() != nil {
		// Already cancelled: stop at the first scheduled safe point.
		e.cancelled.Store(true)
	} else if ctx.Done() != nil {
		finished := make(chan struct{})
		defer close(finished)
		go func() {
			select {
			case <-ctx.Done():
				e.cancelled.Store(true)
			case <-finished:
			}
		}()
	}
	if e.cfg.Driver != nil {
		stop := e.cfg.Driver.Drive(e)
		defer stop()
	}
	// The executor loop: each iteration launches one deployment of the base
	// program. An in-process migration (AdaptTarget.Mode) ends the launch
	// with a canonical snapshot parked in memory; the loop tears the
	// executor down, applies the migration (target mode/topology, replay
	// state) and launches the target-mode executor — adaptation-by-restart
	// without the restart.
	var err error
	for {
		exec, xerr := newExecutor(e)
		if xerr != nil {
			err = xerr
			break
		}
		e.exec = exec
		e.launched = time.Now()
		err = exec.Launch(e)
		exec.Teardown()
		mig := e.migration.Swap(nil)
		if err != nil || mig == nil {
			break
		}
		e.applyMigration(mig)
	}
	// Drain the asynchronous checkpoint writer before deciding the run's
	// outcome: the last capture must persist even when the run failed (it
	// is the restart point), and write errors must surface instead of
	// being dropped with the goroutine. When the run itself also erred,
	// the run's outcome wins but carries the write failure in its message
	// — whoever acts on the error must know the newest snapshot is not
	// the one on disk. errors.Is/As still see the wrapped outcome.
	var drainErr error
	if e.aw != nil {
		start := time.Now()
		drainErr = e.aw.close()
		e.aw = nil
		e.recordDrain(time.Since(start))
	}
	if e.sw != nil {
		start := time.Now()
		swErr := e.sw.close()
		e.sw = nil
		e.recordDrain(time.Since(start))
		if drainErr == nil {
			drainErr = swErr
		}
	}
	withDrain := func(base error) error {
		if drainErr != nil {
			return fmt.Errorf("%w (additionally, an async checkpoint write failed, so the last persisted snapshot is older than the last capture: %v)", base, drainErr)
		}
		return base
	}
	if err != nil {
		return withDrain(err)
	}
	if tok := e.stopped.Load(); tok != nil {
		// Ledger stays dirty: the relaunched engine must replay.
		e.repMu.Lock()
		e.report.Stopped = true
		e.report.StoppedAt = tok.sp
		e.repMu.Unlock()
		serr := &ErrStopped{SafePoint: tok.sp}
		if ctx.Err() != nil {
			serr.Cause = context.Cause(ctx)
		}
		return withDrain(serr)
	}
	if e.failed.Load() {
		e.repMu.Lock()
		e.report.Failed = true
		e.repMu.Unlock()
		return withDrain(ErrInjectedFailure)
	}
	if drainErr != nil {
		// The ledger stays dirty too: the run's final snapshot never
		// persisted, so the previous checkpoint must remain the replay
		// point for whoever acts on this error.
		return fmt.Errorf("core: async checkpoint write failed: %w", drainErr)
	}
	if e.store != nil {
		if err := e.store.LedgerFinish(e.cfg.AppName); err != nil {
			return err
		}
	}
	return nil
}

// openCheckpointing sets up the store and the pcr module, detecting whether
// the previous execution crashed and, if so, arming replay (§IV.A, Fig. 2b).
func (e *Engine) openCheckpointing() error {
	e.store = e.cfg.Store
	if e.store == nil {
		fsStore, err := ckpt.NewFS(e.cfg.CheckpointDir)
		if err != nil {
			return err
		}
		e.store = fsStore
	}
	e.sink = newCkptSink(e.store)
	if e.cfg.DeltaCheckpoint {
		e.tracker = newDeltaTracker(e.cfg.DeltaCompactEvery)
	}
	if e.cfg.ShardCheckpoints {
		e.ssink = newShardSink(e.store, e.cfg.AppName, e.cfg.DeltaCheckpoint,
			e.cfg.DeltaCompactEvery, e.recordShardCommit)
		// Seed chain positions past any committed manifest — even one of a
		// cleanly finished run: its links must not be overwritten before
		// this run's first commit supersedes the record.
		if man, found, merr := e.store.LoadManifest(e.cfg.AppName); merr == nil && found {
			e.ssink.seed(man)
		}
	}
	crashed, err := e.store.Crashed(e.cfg.AppName)
	if err != nil {
		return err
	}
	if !crashed {
		return nil
	}
	// Two restart points may exist: the canonical snapshot (with any delta
	// chain replayed on top) and the manifest-gated shard save. The choice
	// is made from the manifest HEADER alone — the shard chains are only
	// materialised when the shard point actually wins, so a canonical
	// restart neither pays for replaying every rank's chain nor is blocked
	// by damage in a stale shard save it would not use. The newer safe
	// point wins; on a tie the canonical one (it needs no repartitioning).
	snap, found, err := ckpt.LoadResume(e.store, e.cfg.AppName)
	if err != nil {
		return err
	}
	man, mfound, merr := e.store.LoadManifest(e.cfg.AppName)
	if merr != nil && !found {
		// The shard commit record exists but is damaged, and there is no
		// canonical point to fall back to: refuse loudly rather than
		// silently re-run from scratch.
		return merr
	}
	switch {
	case mfound && merr == nil && (!found || man.SafePoints > snap.SafePoints):
		shards, _, sfound, serr := ckpt.LoadShardResume(e.store, e.cfg.AppName)
		if serr != nil {
			return serr
		}
		if !sfound {
			return fmt.Errorf("core: shard manifest for %q vanished during restart", e.cfg.AppName)
		}
		if (e.cfg.Mode == Distributed || e.cfg.Mode == Hybrid ||
			(e.cfg.Mode == Task && e.cfg.Procs > 1)) && e.cfg.Procs == man.World() {
			// Same topology: every rank restores its own shard in parallel.
			e.shardSnaps = shards
		} else {
			// Different world size or mode: repartition the shards through
			// their recorded layouts into a canonical snapshot, which every
			// restart path (and the scatter at load) already understands.
			canon, rerr := ckpt.Reshard(shards, e.cfg.AppName, man.SafePoints)
			if rerr != nil {
				return rerr
			}
			e.resumeSnap = canon
		}
		e.replayTarget = man.SafePoints
	case found:
		e.resumeSnap = snap
		e.replayTarget = snap.SafePoints
	default:
		return nil // crashed before any checkpoint: plain re-run
	}
	e.restarted = true
	e.repMu.Lock()
	e.report.Restarted = true
	e.repMu.Unlock()
	return nil
}

// guard runs fn, converting the engine's control-flow tokens (injected
// failure, checkpoint-and-stop, in-process migration, poisoned team
// barriers) from panics into values. Any other panic is a genuine bug and
// is re-raised.
func (e *Engine) guard(fn func()) (tok any) {
	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case stopToken, failToken, migrateToken, abortToken, team.Poisoned:
				tok = r
			default:
				panic(r)
			}
		}
	}()
	fn()
	return nil
}

func (e *Engine) noteToken(tok any) {
	switch t := tok.(type) {
	case stopToken:
		e.stopped.CompareAndSwap(nil, &t)
	case failToken:
		e.failed.Store(true)
	}
}

// dueAt reports whether a periodic checkpoint is due at safe point sp. It
// is a pure function of sp so every thread and rank reaches the same
// decision independently — required for the collective save protocols.
func (e *Engine) dueAt(sp uint64) bool {
	every := e.cfg.CheckpointEvery
	if e.store == nil || every == 0 || sp == 0 || sp%every != 0 {
		return false
	}
	if e.cfg.MaxCheckpoints > 0 && sp/every > uint64(e.cfg.MaxCheckpoints) {
		return false
	}
	return true
}

// nextDueAfter returns the first safe point strictly after sp at which a
// periodic checkpoint is due, or 0 when the cadence has none left (no
// store, no cadence, or the MaxCheckpoints budget is spent). The scheduler
// uses it to align stop and migration requests with the collective every
// rank already takes at a due safe point.
func (e *Engine) nextDueAfter(sp uint64) uint64 {
	if e.store == nil || e.cfg.CheckpointEvery == 0 {
		return 0
	}
	next := (sp/e.cfg.CheckpointEvery + 1) * e.cfg.CheckpointEvery
	if !e.dueAt(next) {
		return 0
	}
	return next
}

// ckptCadence is the scheduled-checkpoint view at safe point sp: how many
// periodic snapshots are due by sp, split into full saves and delta links by
// the compaction cadence, and the safe point of the newest one. Like dueAt
// it is a pure function of sp and the configuration, so every line of
// execution computes identical values without synchronising — the property
// RunStats requires. It deliberately describes the schedule, not the store:
// restart and migration re-base the persisted chain early, and the
// asynchronous writer may fold captures, without changing the cadence.
func (e *Engine) ckptCadence(sp uint64) (fulls, deltas int, last uint64) {
	every := e.cfg.CheckpointEvery
	if e.store == nil || every == 0 {
		return 0, 0, 0
	}
	n := sp / every
	if max := e.cfg.MaxCheckpoints; max > 0 && n > uint64(max) {
		n = uint64(max)
	}
	if n == 0 {
		return 0, 0, 0
	}
	last = n * every
	if !e.cfg.DeltaCheckpoint {
		return int(n), 0, last
	}
	// Captures cycle full, then DeltaCompactEvery deltas, then full again.
	period := uint64(e.cfg.DeltaCompactEvery) + 1
	f := (n + period - 1) / period
	return int(f), int(n - f), last
}

func (e *Engine) critical(name string) *sync.Mutex {
	e.syncMu.Lock()
	defer e.syncMu.Unlock()
	m, ok := e.crits[name]
	if !ok {
		m = &sync.Mutex{}
		e.crits[name] = m
	}
	return m
}

func (e *Engine) recordSave(d time.Duration, bytes int, delta bool) {
	e.repMu.Lock()
	defer e.repMu.Unlock()
	e.report.SaveTotal += d
	e.report.SaveBytes = bytes
	e.report.Checkpoints++
	e.countSaveLocked(bytes, delta)
}

// countSaveLocked splits the persisted-checkpoint accounting into full
// snapshots vs delta links; callers hold repMu.
func (e *Engine) countSaveLocked(bytes int, delta bool) {
	if delta {
		e.report.DeltaSaves++
		e.report.DeltaBytes += bytes
	} else {
		e.report.FullSaves++
	}
}

// recordCapture accounts the blocked portion of an asynchronous checkpoint:
// the in-memory double-buffer copy taken at the safe point. The matching
// persist is recorded by recordAsyncSave when the background write lands.
func (e *Engine) recordCapture(d time.Duration, bytes int) {
	e.repMu.Lock()
	defer e.repMu.Unlock()
	e.report.SaveTotal += d
	e.report.CaptureTotal += d
	e.report.SaveBytes = bytes
}

func (e *Engine) recordAsyncSave(d time.Duration, bytes int, delta bool) {
	e.repMu.Lock()
	defer e.repMu.Unlock()
	e.report.AsyncSaveTotal += d
	e.report.SaveBytes = bytes // the persisted size, in case the capture was superseded/folded
	e.report.Checkpoints++
	e.countSaveLocked(bytes, delta)
}

// recordShardCommit accounts one committed shard save wave: the wave is one
// checkpoint (one restart point), its links and payload bytes are the
// sharded I/O the protocol parallelises.
func (e *Engine) recordShardCommit(links, waveBytes, masterBytes int, kindDelta bool) {
	e.repMu.Lock()
	defer e.repMu.Unlock()
	e.report.Checkpoints++
	e.report.SaveBytes = masterBytes
	e.report.ShardSaves += links
	e.report.ShardBytes += waveBytes
	if kindDelta {
		e.report.DeltaSaves++
		e.report.DeltaBytes += waveBytes
	} else {
		e.report.FullSaves++
	}
}

// recordShardBlocked accounts the blocked span of one synchronous shard
// wave on the master (the persisted-side counters land in
// recordShardCommit when the wave's manifest commits).
func (e *Engine) recordShardBlocked(d time.Duration, bytes int) {
	e.repMu.Lock()
	defer e.repMu.Unlock()
	e.report.SaveTotal += d
	e.report.SaveBytes = bytes
}

// recordShardAsyncSave accounts one background shard link write.
func (e *Engine) recordShardAsyncSave(d time.Duration, delta bool) {
	e.repMu.Lock()
	defer e.repMu.Unlock()
	e.report.AsyncSaveTotal += d
}

func (e *Engine) recordSuperseded() {
	e.repMu.Lock()
	defer e.repMu.Unlock()
	e.report.Superseded++
}

func (e *Engine) recordDrain(d time.Duration) {
	e.repMu.Lock()
	defer e.repMu.Unlock()
	e.report.DrainTotal += d
}

func (e *Engine) recordLoad(replayDone time.Time, load time.Duration) {
	e.repMu.Lock()
	defer e.repMu.Unlock()
	e.report.LoadTotal += load
	e.report.ReplayTime += replayDone.Sub(e.launched)
	if !e.migStart.IsZero() {
		// This load completed a migration replay: the blocked span runs
		// from the snapshot capture under the old executor to here.
		e.report.MigrationTotal += time.Since(e.migStart)
		e.migStart = time.Time{}
	}
}

// recordTaskCounters folds one team's work-stealing counters into the
// report when its parallel region ends.
func (e *Engine) recordTaskCounters(chunks, steals, idle int64) {
	e.repMu.Lock()
	defer e.repMu.Unlock()
	e.report.TaskChunks += chunks
	e.report.Steals += steals
	e.report.StealIdle += idle
}

// recordRebalance counts one applied cross-rank partition rebalance (rank 0
// reports for the world).
func (e *Engine) recordRebalance() {
	e.repMu.Lock()
	defer e.repMu.Unlock()
	e.report.Rebalances++
}

func (e *Engine) recordAdapted() {
	e.repMu.Lock()
	defer e.repMu.Unlock()
	e.report.Adapted = true
}

// notifyAdapt delivers the Config.OnAdapt callback for a reshaping applied
// at safe point sp. Call sites gate on the coordinating line of execution
// so the hook fires exactly once per applied reshaping.
func (e *Engine) notifyAdapt(sp uint64) {
	if f := e.cfg.OnAdapt; f != nil {
		f(sp, e.curMode, int(e.curThreads.Load()), int(e.curProcs.Load()))
	}
}
