package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ppar/internal/fleet"
	"ppar/internal/jgf"
	"ppar/internal/serial"
	"ppar/pp"
)

// env is what every workload is built from: the seed, the size class and a
// scratch directory inside the checkout.
type env struct {
	seed  uint64
	quick bool
	tmp   string
	// traced: the instance will run traced repetitions, so set-up may record
	// spans of its own untimed legs (leg A of sor-restart-reshape).
	traced bool
}

// pick returns the frozen size, or the tiny one in -quick mode.
func (e *env) pick(full, quick int) int {
	if e.quick {
		return quick
	}
	return full
}

// window is the sink of one measured pass: named sample series plus the
// operation count the builder's contract asks for. An operation is one
// repetition (one job on fleet-mix).
type window struct {
	series            map[string][]float64
	attempted, failed int
	failures          []string
}

func newWindow() *window { return &window{series: map[string][]float64{}} }

func (w *window) add(name string, v ...float64) { w.series[name] = append(w.series[name], v...) }

func (w *window) get(name string) []float64 { return w.series[name] }

// op counts one attempted operation; a non-nil err marks it failed.
func (w *window) op(err error) {
	w.attempted++
	if err != nil {
		w.failed++
		if len(w.failures) < 8 {
			w.failures = append(w.failures, err.Error())
		}
	}
}

// instance is one set-up workload, ready to repeat.
type instance interface {
	// rep runs one repetition into w. With rec.full set it is a traced
	// repetition: the store decorator, the mp counting hook and every
	// master-line span are on.
	rep(w *window, traced bool) *runRec
	// probes calls each layer's public functions on this workload's state.
	probes(w *window)
	// describe reports the frozen sizes for the results file.
	describe() map[string]any
}

type workloadDef struct {
	name, why string
	setup     func(e *env) (instance, error)
}

var workloadDefs = []workloadDef{
	{"sor-smallgrid-smp", "cache-resident SOR (n=256) on 2 threads: two loops, a safe point and four advised calls per ~100 us of kernel, so core dispatch and team barriers do nearly all the non-kernel work", setupSORSmall},
	{"sparse-skew-task", "skewed sparse multiply on the work-stealing executor: per-worker deques and stealing instead of static spans, so a static-path gain that taxes the deque path shows; checkpoint layers idle", setupSparse},
	{"sor-gather-fs-sync", "8 MB SOR on 2 ranks, synchronous gather-at-master checkpoint to disk every 2 safe points: mp gather, serial encode and the FS put block every line of execution", setupSORGather},
	{"stripe-delta-async-dedup", "1 MiB mostly-stable state, one chunk rewritten per iteration, delta+async checkpoints into a dedup FS store: hash/diff at the barrier, encode and chunk puts behind it", setupStripe},
	{"sor-restart-reshape", "restart a killed 2-rank sharded run as 2 threads (manifest load, reshard, replay), then migrate live back to 2 ranks: the read side of the checkpoint layers", setupRestart},
	{"fleet-mix", "2 closed-loop clients submit a seeded mix of small sor/crypt/md jobs for 3 tenants to a budget-2 supervisor: admission, journal and the namespaced store under many small writers", setupFleet},
}

// --- measuring one engine run ---------------------------------------------

type memCounters struct {
	bytes, objects, gcs, pauseNs uint64
}

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{m.TotalAlloc, m.Mallocs, uint64(m.NumGC), m.PauseTotalNs}
}

// measured runs fn between a forced collection and two reads of the
// allocator's counters, and files the deltas under the runtime layer.
func (w *window) measured(fn func()) time.Duration {
	runtime.GC()
	m0 := readMem()
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	m1 := readMem()
	w.add("run_s", d.Seconds())
	w.add("alloc_mb_per_run", float64(m1.bytes-m0.bytes)/1e6)
	w.add("runtime.allocs_per_run", float64(m1.objects-m0.objects))
	w.add("runtime.gc_cycles_per_run", float64(m1.gcs-m0.gcs))
	w.add("runtime.gc_pause_ms_per_run", float64(m1.pauseNs-m0.pauseNs)/1e6)
	return d
}

// mpCounter is the zero-delay pp.WithDelay hook: it sees every message the
// in-process transport carries and delays none.
type mpCounter struct{ msgs, bytes atomic.Int64 }

func (c *mpCounter) hook(_, _, n int) time.Duration {
	c.msgs.Add(1)
	c.bytes.Add(int64(n))
	return 0
}

// engineRun builds one engine, runs it inside measured() and files what the
// run itself reports. build receives the extra options a traced repetition
// adds. It returns the report and the run's error.
func (w *window) engineRun(rec *runRec, build func(extra ...pp.Option) (*pp.Engine, error)) (pp.Report, error) {
	traced := rec.full
	var (
		eng  *pp.Engine
		err  error
		hook mpCounter
	)
	var extra []pp.Option
	if traced {
		extra = append(extra, pp.WithDelay(hook.hook))
	}
	t0 := time.Now()
	eng, err = build(extra...)
	if err != nil {
		return pp.Report{}, err
	}
	w.add("core.engine_new_us", float64(time.Since(t0))/1e3)
	w.measured(func() {
		rec.epoch = time.Now() // span times and restart_s count from here
		err = eng.Run()
	})
	rep := eng.Report()
	// What a run did not use stays absent from the results instead of
	// reading zero.
	ms := func(name string, d time.Duration) {
		if d > 0 {
			w.add(name, float64(d)/1e6)
		}
	}
	ms("core.report_save_total_ms", rep.SaveTotal)
	ms("core.report_capture_ms", rep.CaptureTotal)
	ms("core.report_async_save_ms", rep.AsyncSaveTotal)
	ms("core.report_drain_ms", rep.DrainTotal)
	ms("core.report_load_ms", rep.LoadTotal)
	ms("core.report_replay_ms", rep.ReplayTime)
	ms("core.report_migration_ms", rep.MigrationTotal)
	if rep.CaptureTotal > 0 {
		w.add("core.superseded_per_run", float64(rep.Superseded))
	}
	if rep.TaskChunks > 0 {
		w.add("team.task_chunks_per_run", float64(rep.TaskChunks))
		w.add("team.steal_ratio", rep.Sched().StealRatio())
		w.add("team.idle_ratio", rep.Sched().IdleRatio())
	}
	if traced && rep.SafePoints > 0 && hook.msgs.Load() > 0 {
		w.add("mp.msgs_per_sp", float64(hook.msgs.Load())/float64(rep.SafePoints))
		w.add("mp.bytes_per_sp", float64(hook.bytes.Load())/float64(rep.SafePoints))
	}
	return rep, err
}

// masterSeries files what the master line recorded in one repetition: the
// safe-point timings — those at which the engine checkpointed (every `every`
// safe points, at most maxCkpt of them) as ckpt_blocked_ms, the rest as idle
// safe points — and, for a traced repetition, the span-derived series.
func (w *window) masterSeries(rec *runRec, every uint64, maxCkpt int) {
	isCkpt := func(s spSample) bool {
		return every > 0 && s.sp%every == 0 && (maxCkpt == 0 || s.sp/every <= uint64(maxCkpt))
	}
	for _, s := range rec.sps {
		switch d := s.end.Sub(s.start); {
		case s.replay:
		case isCkpt(s):
			w.add("ckpt_blocked_ms", float64(d)/1e6)
		default:
			w.add("core.safepoint_idle_us", float64(d)/1e3)
		}
	}
	if runs := w.get("run_s"); rec.full && len(runs) > 0 {
		spanSeries(w, rec, int64(runs[len(runs)-1]*1e9), isCkpt)
	}
}

// baseline times the hand-written program on a fresh copy of the inputs.
func (w *window) baseline(fn func()) {
	runtime.GC()
	t := time.Now()
	fn()
	w.add("base_s", time.Since(t).Seconds())
}

func dirBytes(dir string) float64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return float64(n)
}

// fsStore opens an FS store on a fresh directory, holding a copy of template's
// files when template is not empty. The caller removes the directory; all of
// it happens outside the timed part.
func (e *env) fsStore(name, template string) (dir string, store pp.Store, err error) {
	if dir, err = os.MkdirTemp(e.tmp, name+"-*"); err != nil {
		return "", nil, err
	}
	if template != "" {
		err = copyDir(dir, template)
	}
	if err == nil {
		store, err = pp.NewFSStore(dir)
	}
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	return dir, store, nil
}

// --- W1: sor-smallgrid-smp -------------------------------------------------

type sorSmall struct {
	n, iters int
	grid0    [][]float64
	ref      [][]float64
	pool     instances[[][]float64]
}

func setupSORSmall(e *env) (instance, error) {
	s := &sorSmall{n: e.pick(256, 48), iters: e.pick(1000, 40)}
	s.grid0 = seededGrid(s.n, newRNG(e.seed, "sor-smallgrid"))
	s.ref = copyGrid(s.grid0)
	sorPlain(s.ref, s.iters)
	s.pool.make = func() [][]float64 { return copyGrid(s.grid0) }
	return s, nil
}

func (s *sorSmall) describe() map[string]any {
	return map[string]any{"n": s.n, "iters": s.iters, "mode": "smp", "threads": 2, "store": "mem", "checkpoints": 1}
}

func (s *sorSmall) rep(w *window, traced bool) *runRec {
	base := copyGrid(s.grid0)
	w.baseline(func() { sorPlain(base, s.iters) })

	rec := newRunRec(traced)
	out := &sorOut{}
	s.pool.prepare(1)
	var store pp.Store = pp.NewMemStore()
	mem := store
	var ts *timedStore
	if traced {
		// No probe: with one cold save per run, splitting its span into
		// serialisation and persistence measures the in-situ encode's own
		// warm-up (the difference read negative).
		ts = &timedStore{Store: store, rec: rec, prefix: "ckpt", onMaster: true}
		store = ts
	}
	every := uint64(s.iters / 2)
	_, err := w.engineRun(rec, func(extra ...pp.Option) (*pp.Engine, error) {
		return pp.New(func() pp.App {
			return &sorApp{G: s.pool.take(), N: s.n, Iters: s.iters, rec: rec, out: out}
		}, append([]pp.Option{
			pp.WithName("w1"), pp.WithMode(pp.Shared), pp.WithThreads(2),
			pp.WithModules(jgf.SORModules(pp.Shared)...),
			pp.WithStore(store), pp.WithCheckpointEvery(every), pp.WithMaxCheckpoints(1),
		}, extra...)...)
	})
	if err == nil && !(sameGrid(out.G, s.ref) && sameGrid(base, s.ref)) {
		err = errors.New("sor-smallgrid-smp: result differs from the plain-loop reference")
	}
	w.op(err)
	w.masterSeries(rec, every, 1)
	w.add("ckpt_bytes_per_save", float64(s.n*s.n*8))
	storeSeries(w, rec, ts)
	if sz, ok := mem.(interface{ Size() (int, int64) }); ok {
		_, b := sz.Size()
		w.add("ckpt.store_bytes_at_exit", float64(b))
	}
	return rec
}

func (s *sorSmall) probes(*window) {}

// --- W2: sparse-skew-task ---------------------------------------------------

type sparseSkew struct {
	n, iters int
	m        *jgf.Sparse
	ref      []float64
	pool     instances[[]float64]
}

func setupSparse(e *env) (instance, error) {
	s := &sparseSkew{n: e.pick(16384, 512), iters: e.pick(300, 10)}
	// The matrix is jgf's deterministic skewed one; the seed drives x.
	s.m = jgf.NewSparseSkewed(s.n, 4, s.iters, nil)
	r := newRNG(e.seed, "sparse-skew")
	for i := range s.m.X {
		s.m.X[i] = r.float()
	}
	s.ref = make([]float64, s.n)
	s.plain(s.ref)
	s.pool.make = func() []float64 { return make([]float64, s.n) }
	return s, nil
}

func (s *sparseSkew) plain(y []float64) {
	for it := 0; it < s.iters; it++ {
		sparseRows(s.m.Val, s.m.Col, s.m.RowPtr, s.m.X, y, 0, s.n)
	}
}

func (s *sparseSkew) describe() map[string]any {
	return map[string]any{"n": s.n, "nnz_per_row": 4, "nnz": len(s.m.Val), "iters": s.iters, "mode": "task", "threads": 2, "overdecompose": 8}
}

func (s *sparseSkew) rep(w *window, traced bool) *runRec {
	base := make([]float64, s.n)
	w.baseline(func() { s.plain(base) })

	rec := newRunRec(traced)
	out := &sparseOut{}
	s.pool.prepare(1)
	_, err := w.engineRun(rec, func(extra ...pp.Option) (*pp.Engine, error) {
		return pp.New(func() pp.App {
			return &sparseApp{Val: s.m.Val, Col: s.m.Col, RowPtr: s.m.RowPtr, X: s.m.X,
				Y: s.pool.take(), N: s.n, Iters: s.iters, rec: rec, out: out}
		}, append([]pp.Option{
			pp.WithName("w2"), pp.WithMode(pp.Task), pp.WithThreads(2), pp.WithOverdecompose(8),
			pp.WithModules(jgf.SparseModules(pp.Task)...),
		}, extra...)...)
	})
	if err == nil && !(sameF64s(out.Y, s.ref) && sameF64s(base, s.ref)) {
		err = errors.New("sparse-skew-task: result differs from the plain-loop reference")
	}
	w.op(err)
	w.masterSeries(rec, 0, 0)
	return rec
}

func (s *sparseSkew) probes(w *window) {
	snap := serial.NewSnapshot("w2", "task", 0)
	snap.Fields["Y"] = serial.Float64s(append([]float64(nil), s.ref...)) // the delta probe writes to it
	fullSnapshotProbes(w, snap)
}

// --- W3: sor-gather-fs-sync -------------------------------------------------

type sorGather struct {
	e        *env
	n, iters int
	every    uint64
	grid0    [][]float64
	ref      [][]float64
	pool     instances[[][]float64]
	probe    storeProbe
}

func setupSORGather(e *env) (instance, error) {
	s := &sorGather{e: e, n: e.pick(1000, 64), iters: e.pick(20, 8), every: 2}
	s.grid0 = seededGrid(s.n, newRNG(e.seed, "sor-gather"))
	s.ref = copyGrid(s.grid0)
	sorPlain(s.ref, s.iters)
	s.pool.make = func() [][]float64 { return copyGrid(s.grid0) }
	return s, nil
}

func (s *sorGather) describe() map[string]any {
	return map[string]any{"n": s.n, "iters": s.iters, "mode": "dist", "procs": 2, "store": "fs", "checkpoint_every": s.every, "saves_per_run": s.iters / int(s.every)}
}

func (s *sorGather) rep(w *window, traced bool) *runRec {
	base := copyGrid(s.grid0)
	w.baseline(func() { sorPlain(base, s.iters) })

	rec := newRunRec(traced)
	out := &sorOut{}
	dir, store, err := s.e.fsStore("w3", "")
	if err != nil {
		w.op(err)
		return rec
	}
	defer os.RemoveAll(dir)
	var ts *timedStore
	if traced {
		ts = &timedStore{Store: store, rec: rec, prefix: "ckpt", onMaster: true, probe: &s.probe}
		store = ts
	}
	s.pool.prepare(2)
	rep, err := w.engineRun(rec, func(extra ...pp.Option) (*pp.Engine, error) {
		return pp.New(func() pp.App {
			return &sorApp{G: s.pool.take(), N: s.n, Iters: s.iters, rec: rec, out: out}
		}, append([]pp.Option{
			pp.WithName("w3"), pp.WithMode(pp.Distributed), pp.WithProcs(2),
			pp.WithModules(jgf.SORModules(pp.Distributed)...),
			pp.WithStore(store), pp.WithCheckpointEvery(s.every),
		}, extra...)...)
	})
	if err == nil && !(sameGrid(out.G, s.ref) && sameGrid(base, s.ref)) {
		err = errors.New("sor-gather-fs-sync: result differs from the plain-loop reference")
	}
	if err == nil && rep.Checkpoints != s.iters/int(s.every) {
		err = fmt.Errorf("sor-gather-fs-sync: %d checkpoints persisted, want %d", rep.Checkpoints, s.iters/int(s.every))
	}
	w.op(err)
	w.masterSeries(rec, s.every, 0)
	w.add("ckpt_bytes_per_save", float64(rep.SaveBytes))
	w.add("ckpt.store_bytes_at_exit", dirBytes(dir))
	storeSeries(w, rec, ts)
	return rec
}

func (s *sorGather) probes(w *window) {
	serialProbes(w, &s.probe)
	partitionProbes(w, s.ref)
}

// --- W4: stripe-delta-async-dedup -------------------------------------------

type stripe struct {
	e             *env
	chunks, iters int
	s0, ref       []float64
	order         []int
	pool          instances[[]float64]
	probe         storeProbe
}

func setupStripe(e *env) (instance, error) {
	s := &stripe{e: e, chunks: e.pick(16, 4), iters: e.pick(48, 24)}
	r := newRNG(e.seed, "stripe")
	s.s0 = make([]float64, s.chunks*serial.DeltaChunkElems)
	for i := range s.s0 {
		s.s0[i] = r.float()
	}
	s.order = make([]int, s.iters)
	for i := range s.order {
		s.order[i] = r.intn(s.chunks)
	}
	s.ref = append([]float64(nil), s.s0...)
	stripePlain(s.ref, s.order)
	s.pool.make = func() []float64 { return append([]float64(nil), s.s0...) }
	return s, nil
}

func (s *stripe) describe() map[string]any {
	return map[string]any{"chunks": s.chunks, "chunk_elems": serial.DeltaChunkElems, "state_bytes": len(s.s0) * 8,
		"iters": s.iters, "mode": "smp", "threads": 2, "store": "dedup(fs)", "delta_every": 1, "compact_every": 8, "async": true}
}

func (s *stripe) rep(w *window, traced bool) *runRec {
	base := append([]float64(nil), s.s0...)
	w.baseline(func() { stripePlain(base, s.order) })

	rec := newRunRec(traced)
	out := &stripeOut{}
	dir, fsStore, err := s.e.fsStore("w4", "")
	if err != nil {
		w.op(err)
		return rec
	}
	defer os.RemoveAll(dir)
	// Decorate above and below the dedup store: above sees what the engine
	// saves, below sees the chunk puts and the chunk-free envelopes.
	var inner, top *timedStore
	var below pp.Store = fsStore
	if traced {
		inner = &timedStore{Store: fsStore, rec: rec, prefix: "ckpt.inner"}
		below = inner
	}
	dedup := pp.NewDedupStore(below)
	var store pp.Store = dedup
	if traced {
		top = &timedStore{Store: dedup, rec: rec, prefix: "ckpt", probe: &s.probe}
		store = top
	}
	s.pool.prepare(1)
	rep, err := w.engineRun(rec, func(extra ...pp.Option) (*pp.Engine, error) {
		return pp.New(func() pp.App {
			return &stripeApp{S: s.pool.take(), Order: s.order, Iters: s.iters, rec: rec, out: out}
		}, append([]pp.Option{
			pp.WithName("w4"), pp.WithMode(pp.Shared), pp.WithThreads(2),
			pp.WithModules(stripeModules()...),
			pp.WithStore(store), pp.WithDeltaCheckpoint(1, 8), pp.WithAsyncCheckpoint(),
		}, extra...)...)
	})
	if err == nil && !(sameF64s(out.S, s.ref) && sameF64s(base, s.ref)) {
		err = errors.New("stripe-delta-async-dedup: result differs from the plain-loop reference")
	}
	if err == nil && rep.Checkpoints == 0 {
		err = errors.New("stripe-delta-async-dedup: no checkpoint was persisted")
	}
	w.op(err)
	w.masterSeries(rec, 1, 0)
	st := dedup.Stats()
	if rep.Checkpoints > 0 {
		// The chunk payload the backend had to write, per checkpoint that
		// reached it. How many captures are folded before they get there is a
		// matter of timing, so this spreads by a sixth from run to run: a
		// layer metric, not the exact ckpt_bytes_per_save of the other
		// workloads.
		w.add("ckpt.physical_bytes_per_save", float64(st.PhysicalBytes)/float64(rep.Checkpoints))
	}
	w.add("ckpt.dedup_ratio", st.Ratio())
	if st.Chunks > 0 {
		w.add("ckpt.chunk_dup_ratio", float64(st.DupChunks)/float64(st.Chunks))
	}
	w.add("ckpt.store_bytes_at_exit", dirBytes(dir))
	storeSeries(w, rec, top)
	storeSeries(w, rec, inner)
	return rec
}

func (s *stripe) probes(w *window) {
	serialProbes(w, &s.probe)
}

// --- W5: sor-restart-reshape -------------------------------------------------

type restart struct {
	e        *env
	n, iters int
	every    uint64
	failAt   uint64
	adaptAt  uint64
	grid0    [][]float64
	ref      [][]float64
	pool     instances[[][]float64]
	template string // the store leg A left behind
	legA     pp.Report
	legARec  *runRec
	legAts   *timedStore
}

func setupRestart(e *env) (instance, error) {
	s := &restart{e: e, n: e.pick(1000, 64), iters: e.pick(40, 16)}
	s.every, s.failAt, s.adaptAt = 5, uint64(s.iters*3/4), uint64(s.iters*7/8)
	s.grid0 = seededGrid(s.n, newRNG(e.seed, "sor-restart"))
	s.ref = copyGrid(s.grid0)
	sorPlain(s.ref, s.iters)
	s.pool.make = func() [][]float64 { return copyGrid(s.grid0) }

	// Leg A (untimed): a 2-rank sharded run killed at failAt leaves a store
	// whose newest committed wave is the restart point of every leg B.
	dir, fsStore, err := e.fsStore("w5-template", "")
	if err != nil {
		return nil, err
	}
	s.template = dir
	store := fsStore
	s.legARec = newRunRec(e.traced)
	if e.traced {
		s.legAts = &timedStore{Store: fsStore, rec: s.legARec, prefix: "ckpt"}
		store = s.legAts
	}
	out := &sorOut{}
	s.pool.prepare(2)
	eng, err := pp.New(func() pp.App {
		return &sorApp{G: s.pool.take(), N: s.n, Iters: s.iters, rec: s.legARec, out: out}
	},
		pp.WithName("w5"), pp.WithMode(pp.Distributed), pp.WithProcs(2),
		pp.WithModules(jgf.SORModules(pp.Distributed)...),
		pp.WithStore(store), pp.WithShardCheckpoints(), pp.WithCheckpointEvery(s.every),
		pp.WithFailureAt(s.failAt, 1))
	if err != nil {
		return nil, err
	}
	if err := eng.Run(); !errors.Is(err, pp.ErrInjectedFailure) {
		return nil, fmt.Errorf("sor-restart-reshape leg A: want the injected failure, got %v", err)
	}
	s.legA = eng.Report()
	if s.legA.Checkpoints == 0 {
		return nil, errors.New("sor-restart-reshape leg A committed no checkpoint wave")
	}
	return s, nil
}

func (s *restart) describe() map[string]any {
	return map[string]any{"n": s.n, "iters": s.iters, "leg_a": "dist procs=2 shard checkpoints", "checkpoint_every": s.every,
		"fail_at": s.failAt, "leg_b": "smp threads=2", "migrate_at": s.adaptAt, "migrate_to": "dist procs=2", "store": "fs"}
}

func copyDir(dst, src string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, en := range entries {
		data, err := os.ReadFile(filepath.Join(src, en.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, en.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func (s *restart) rep(w *window, traced bool) *runRec {
	base := copyGrid(s.grid0)
	w.baseline(func() { sorPlain(base, s.iters) })

	rec := newRunRec(traced)
	out := &sorOut{}
	dir, store, err := s.e.fsStore("w5", s.template)
	if err != nil {
		w.op(err)
		return rec
	}
	defer os.RemoveAll(dir)
	var ts *timedStore
	if traced {
		ts = &timedStore{Store: store, rec: rec, prefix: "ckpt", onMaster: true}
		store = ts
	}
	s.pool.prepare(3) // leg B's thread team shares one; the migration target needs two
	rep, err := w.engineRun(rec, func(extra ...pp.Option) (*pp.Engine, error) {
		return pp.New(func() pp.App {
			return &sorApp{G: s.pool.take(), N: s.n, Iters: s.iters, rec: rec, out: out}
		}, append([]pp.Option{
			pp.WithName("w5"), pp.WithMode(pp.Shared), pp.WithThreads(2),
			pp.WithModules(jgf.SORModules(pp.Hybrid)...),
			pp.WithStore(store),
			pp.WithAdaptAt(s.adaptAt, pp.AdaptTarget{Mode: pp.Distributed, Procs: 2}),
		}, extra...)...)
	})
	switch {
	case err != nil:
	case !sameGrid(out.G, s.ref) || !sameGrid(base, s.ref):
		err = errors.New("sor-restart-reshape: leg B differs from the uninterrupted run")
	case !rep.Restarted || rep.Migrations != 1 || len(rec.replayEnds) != 2 || rec.migStart.IsZero():
		err = fmt.Errorf("sor-restart-reshape: leg B restarted=%v migrations=%d replays seen=%d", rep.Restarted, rep.Migrations, len(rec.replayEnds))
	}
	w.op(err)
	if err == nil {
		w.add("restart_s", rec.replayEnds[0].Sub(rec.epoch).Seconds())
		w.add("migrate_s", rec.replayEnds[1].Sub(rec.migStart).Seconds())
	}
	w.masterSeries(rec, 0, 0)
	w.add("ckpt_bytes_per_save", float64(s.legA.ShardBytes)/float64(s.legA.Checkpoints))
	w.add("ckpt.store_bytes_at_exit", dirBytes(dir))
	storeSeries(w, rec, ts)
	return rec
}

func (s *restart) probes(w *window) {
	storeSeries(w, s.legARec, s.legAts)
	restartProbes(w, s.template, "w5")
	partitionProbes(w, s.ref)
}

// --- W6: fleet-mix -----------------------------------------------------------

// fleetKinds is the job mix; every client submits each kind jobsPerKind times
// per batch, in seeded order. Tenants rotate by kind.
var fleetKinds = []fleet.JobSpec{
	{Tenant: "t-a", Workload: "sor", Params: map[string]int{"n": 96, "iters": 64}, Mode: pp.Sequential, CheckpointEvery: 8},
	{Tenant: "t-b", Workload: "crypt", Params: map[string]int{"n": 32768}, Mode: pp.Sequential, CheckpointEvery: 8},
	{Tenant: "t-c", Workload: "md", Params: map[string]int{"n": 32, "steps": 16}, Mode: pp.Sequential, CheckpointEvery: 8},
	{Tenant: "t-a", Workload: "sor", Params: map[string]int{"n": 96, "iters": 64}, Mode: pp.Shared, Threads: 2, CheckpointEvery: 8},
}

var fleetWorkloads = map[string]fleet.WorkloadFunc{
	"sor": fleet.SORWorkload, "crypt": fleet.CryptWorkload, "md": fleet.MDWorkload,
}

type fleetMix struct {
	jobsPerKind int
	orders      [2][]int  // per client: indexes into fleetKinds
	want        []string  // per kind: the bare engine's result digest
	bareMs      []float64 // per kind: the bare engine's median run time
}

const fleetClients = 2

func setupFleet(e *env) (instance, error) {
	s := &fleetMix{jobsPerKind: e.pick(4, 3)}
	r := newRNG(e.seed, "fleet-mix")
	for c := range s.orders {
		for k := range fleetKinds {
			for j := 0; j < s.jobsPerKind; j++ {
				s.orders[c] = append(s.orders[c], k)
			}
		}
		o := s.orders[c]
		for i := len(o) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			o[i], o[j] = o[j], o[i]
		}
	}
	for k := range fleetKinds {
		var times []float64
		var digest string
		for i := 0; i < 3; i++ {
			d, got, err := bareRun(fleetKinds[k])
			if err != nil {
				return nil, err
			}
			times, digest = append(times, float64(d)/1e6), got
		}
		s.want = append(s.want, digest)
		s.bareMs = append(s.bareMs, median(times))
	}
	return s, nil
}

// bareRun runs one job spec on an engine of its own: no supervisor, no store.
func bareRun(spec fleet.JobSpec) (time.Duration, string, error) {
	inst, err := fleetWorkloads[spec.Workload](spec)
	if err != nil {
		return 0, "", err
	}
	eng, err := pp.New(inst.Factory, pp.WithMode(spec.Mode), pp.WithThreads(spec.Threads), pp.WithModules(inst.Modules...))
	if err != nil {
		return 0, "", err
	}
	t := time.Now()
	if err := eng.Run(); err != nil {
		return 0, "", err
	}
	return time.Since(t), inst.Result(), nil
}

func (s *fleetMix) describe() map[string]any {
	return map[string]any{"clients": fleetClients, "budget": 2, "tenants": 3, "jobs_per_batch": fleetClients * len(s.orders[0]),
		"kinds": fleetKinds, "store": "mem"}
}

func (s *fleetMix) rep(w *window, traced bool) *runRec {
	// The hand-written side of a batch: the same jobs, one after the other,
	// each on a bare sequential-or-smp engine.
	var berr error
	w.baseline(func() {
		for _, o := range s.orders {
			for _, k := range o {
				if _, got, err := bareRun(fleetKinds[k]); err != nil || got != s.want[k] {
					berr = fmt.Errorf("fleet-mix: bare run of kind %d: %q, %v", k, got, err)
				}
			}
		}
	})

	rec := newRunRec(traced)
	var store pp.Store = pp.NewMemStore()
	mem := store
	var ts *timedStore
	if traced {
		ts = &timedStore{Store: store, rec: rec, prefix: "ckpt"}
		store = ts
	}
	type jobOut struct {
		kind      int
		latencyMs float64
		submitUs  float64
		err       error
	}
	outs := make([][]jobOut, fleetClients)
	var batchErr error
	d := w.measured(func() {
		sup, err := fleet.New(fleet.Config{Store: store, Budget: 2, CheckpointEvery: 8})
		if err != nil {
			batchErr = err
			return
		}
		fleet.StockWorkloads(sup)
		if _, err := sup.Start(); err != nil {
			batchErr = err
			return
		}
		var wg sync.WaitGroup
		for c := 0; c < fleetClients; c++ {
			c := c
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, k := range s.orders[c] {
					t0 := time.Now()
					id, err := sup.Submit(fleetKinds[k])
					t1 := time.Now()
					o := jobOut{kind: k, submitUs: float64(t1.Sub(t0)) / 1e3, err: err}
					if err == nil {
						var st fleet.JobStatus
						st, err = sup.WaitJob(context.Background(), id)
						t2 := time.Now()
						o.latencyMs = float64(t2.Sub(t0)) / 1e6
						rec.offTrack("fleet.submit", trackClient, t0, t1, false)
						rec.offTrack(fmt.Sprintf("fleet.job:%s", fleetKinds[k].Workload), trackClient, t0, t2, false)
						switch {
						case err != nil:
						case st.State != fleet.Done:
							err = fmt.Errorf("fleet-mix: job %d ended %s: %s", id, st.State, st.Error)
						case st.Result != s.want[k]:
							err = fmt.Errorf("fleet-mix: job %d result %q, bare engine gave %q", id, st.Result, s.want[k])
						}
						o.err = err
					}
					outs[c] = append(outs[c], o)
				}
			}()
		}
		wg.Wait()
		batchErr = sup.Close()
	})
	jobs := 0
	for _, co := range outs {
		for _, o := range co {
			err := o.err
			if err == nil {
				err = batchErr
			}
			if err == nil {
				err = berr
			}
			w.op(err)
			if o.err != nil {
				continue
			}
			jobs++
			w.add("job_ms", o.latencyMs)
			w.add("fleet.submit_us", o.submitUs)
			w.add("fleet.hosted_ratio", o.latencyMs/s.bareMs[o.kind])
		}
	}
	if len(outs[0])+len(outs[1]) == 0 {
		w.op(batchErr) // the supervisor never came up: one failed operation
	}
	w.add("jobs_per_s", float64(jobs)/d.Seconds())
	if ts != nil && jobs > 0 {
		w.add("fleet.store_calls_per_job", float64(ts.calls.Load())/float64(jobs))
	}
	if sz, ok := mem.(interface{ Size() (int, int64) }); ok {
		_, b := sz.Size()
		w.add("ckpt.store_bytes_at_exit", float64(b))
	}
	storeSeries(w, rec, ts)
	return rec
}

func (s *fleetMix) probes(w *window) {
	g := seededGrid(96, newRNG(1, "fleet-probe"))
	snap := serial.NewSnapshot("job", "seq", 0)
	snap.Fields["G"] = serial.Float64Matrix(g)
	fullSnapshotProbes(w, snap)
}
