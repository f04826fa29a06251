package main

import "math"

// result is everything one run of one workload measured.
type result struct {
	def   workloadDef
	seed  uint64
	sizes map[string]any
	setup []float64 // set-up times, seconds
	// u: untraced repetitions (every end-to-end number comes from here);
	// t: traced repetitions; p: isolated probes and untimed legs.
	u, t, p *window
}

// metric is one named number. value reports it with its sample count; n == 0
// means the metric does not exist on this workload (a "—" cell).
type metric struct {
	name, unit, better string
	bound              float64 // end-to-end only: share of the parent's median it may worsen by
	doc                string
	// A metric is either the median of a sample series (looked up in the
	// first window of pick that has it) or a value derived from several.
	series string
	pick   func(*result) []*window
	value  func(r *result) (v float64, n int)
}

func of(w *window, series string, f func([]float64) float64) (float64, int) {
	if w == nil {
		return 0, 0
	}
	v := w.get(series)
	if len(v) == 0 {
		return 0, 0
	}
	return f(v), len(v)
}

// med is the median of a series in the first window that has it.
func med(series string, pick func(*result) []*window) func(*result) (float64, int) {
	return func(r *result) (float64, int) {
		for _, w := range pick(r) {
			if v, n := of(w, series, median); n > 0 {
				return v, n
			}
		}
		return 0, 0
	}
}

func untraced(r *result) []*window { return []*window{r.u} }
func traced(r *result) []*window   { return []*window{r.t, r.p} }
func probed(r *result) []*window   { return []*window{r.p} }

func p95(series string) func(*result) (float64, int) {
	return func(r *result) (float64, int) {
		if len(r.u.get(series)) < 20 {
			return 0, 0 // no tenth sample beyond the percentile yet
		}
		return of(r.u, series, func(v []float64) float64 { return percentile(v, 95) })
	}
}

// ratio is the quotient of two medians, less sub.
func ratio(num func(*result) (float64, int), den func(*result) (float64, int), sub float64) func(*result) (float64, int) {
	return func(r *result) (float64, int) {
		a, n := num(r)
		b, m := den(r)
		if n == 0 || m == 0 || b == 0 {
			return 0, 0
		}
		return a/b - sub, min(n, m)
	}
}

// endToEnd are the metrics every workload reports and the driver bounds.
// Bounds are max(the issue's starting value, 3 × the spread seen over ten
// seeds on the seed commit), capped at the contract's 0.25.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25,
		doc:   "build inputs and references, open the store, run untimed legs and one warm-up repetition; median of three set-ups",
		value: func(r *result) (float64, int) { return median(r.setup), len(r.setup) }},
	{name: "run_s", unit: "s", better: "lower", bound: 0.10,
		doc:    "wall time of one Engine.Run to a verified result (leg B on sor-restart-reshape, one 16-job batch on fleet-mix); median over repetitions",
		series: "run_s", pick: untraced},
	{name: "time_vs_handwritten", unit: "ratio", better: "lower", bound: 0.10,
		doc:   "run_s over the median of the interleaved hand-written program on the same inputs (plain loops; bare engines for fleet-mix): the paper's overhead figure",
		value: ratio(med("run_s", untraced), med("base_s", untraced), 0)},
	// A repetition's total moves in steps of one pooled buffer (whether a GC
	// cycle emptied the sync.Pool between two saves), so a median would flip
	// between steps from run to run; the mean does not.
	{name: "alloc_mb_per_run", unit: "MB", better: "lower", bound: 0.10,
		doc:   "heap bytes allocated across one repetition (runtime TotalAlloc delta); mean over repetitions",
		value: func(r *result) (float64, int) { return of(r.u, "alloc_mb_per_run", mean) }},
}

// bounded marks a per-layer row as an end-to-end metric that exists on some
// workloads only, with the bound -compare and -selfcheck hold it to.
func bounded(bound float64, m metric) metric {
	m.bound = bound
	return m
}

func layerMetric(name, unit, better, doc string, value func(*result) (float64, int)) metric {
	return metric{name: name, unit: unit, better: better, doc: doc, value: value}
}

func seriesMetric(name, unit, better, doc, series string, pick func(*result) []*window) metric {
	return metric{name: name, unit: unit, better: better, doc: doc, series: series, pick: pick}
}

// perLayer are the metrics of single layers (named layer.metric), plus the
// end-to-end metrics that exist on some workloads only: the driver wants
// every bounded metric on every workload and never zero, so BENCHMARK.json
// lists those here, unbounded; -compare and -selfcheck apply their bounds.
var perLayer = []metric{
	bounded(0.10, seriesMetric("ckpt_blocked_ms", "ms", "lower", "median time the master line is held in a checkpointing safe-point call", "ckpt_blocked_ms", untraced)),
	// Unbounded: on stripe-delta-async-dedup the tail of a 1 ms safe point is
	// set by fsync and GC, and spread by 12 to 23 % between runs.
	layerMetric("ckpt_blocked_p95_ms", "ms", "lower", "p95 of the same samples", p95("ckpt_blocked_ms")),
	bounded(0.01, seriesMetric("ckpt_bytes_per_save", "bytes", "lower", "bytes persisted per checkpoint, an exact count", "ckpt_bytes_per_save", untraced)),
	bounded(0.10, seriesMetric("restart_s", "s", "lower", "leg-B engine construction to the first non-replaying master iteration: load + reshard + replay", "restart_s", untraced)),
	bounded(0.15, seriesMetric("migrate_s", "s", "lower", "entry of the safe-point call a live migration unwinds to the end of the replay under the new executor", "migrate_s", untraced)),
	bounded(0.10, seriesMetric("jobs_per_s", "1/s", "higher", "jobs reaching Done per second of batch wall time", "jobs_per_s", untraced)),
	bounded(0.10, seriesMetric("job_p50_ms", "ms", "lower", "Submit to Done latency, median", "job_ms", untraced)),
	bounded(0.20, layerMetric("job_p95_ms", "ms", "lower", "Submit to Done latency, p95", p95("job_ms"))),

	seriesMetric("core.call_ns", "ns", "lower", "one advised ctx.Call with nothing behind it, on a sequential engine (probe)", "core.call_ns", probed),
	seriesMetric("core.forspan_overhead_us", "us", "lower", "master's pp.ForSpan span minus its own body spans: schedule + loop barrier", "core.forspan_overhead_us", traced),
	seriesMetric("core.safepoint_idle_us", "us", "lower", "a safe-point call at which nothing is due", "core.safepoint_idle_us", traced),
	seriesMetric("core.safepoint_ckpt_self_ms", "ms", "lower", "checkpointing safe-point span minus the store spans inside it: barrier + gather + capture", "core.safepoint_ckpt_self_ms", traced),
	seriesMetric("core.engine_new_us", "us", "lower", "pp.New for the workload's deployment", "core.engine_new_us", traced),
	seriesMetric("core.report_save_total_ms", "ms", "lower", "Report.SaveTotal per run", "core.report_save_total_ms", traced),
	seriesMetric("core.report_capture_ms", "ms", "lower", "Report.CaptureTotal per run", "core.report_capture_ms", traced),
	seriesMetric("core.report_async_save_ms", "ms", "lower", "Report.AsyncSaveTotal per run", "core.report_async_save_ms", traced),
	seriesMetric("core.report_drain_ms", "ms", "lower", "Report.DrainTotal per run", "core.report_drain_ms", traced),
	seriesMetric("core.report_load_ms", "ms", "lower", "Report.LoadTotal per run", "core.report_load_ms", traced),
	seriesMetric("core.report_replay_ms", "ms", "lower", "Report.ReplayTime per run", "core.report_replay_ms", traced),
	seriesMetric("core.report_migration_ms", "ms", "lower", "Report.MigrationTotal per run", "core.report_migration_ms", traced),
	seriesMetric("core.superseded_per_run", "count", "lower", "captures superseded or folded before they were persisted", "core.superseded_per_run", traced),

	seriesMetric("team.barrier_ns", "ns", "lower", "one Worker.Barrier on a team of 2 (probe)", "team.barrier_ns", probed),
	seriesMetric("team.for_static_us", "us", "lower", "one empty static Worker.For + barrier (probe)", "team.for_static_us", probed),
	seriesMetric("team.for_task_us", "us", "lower", "one empty 16-chunk Worker.ForTask + barrier (probe)", "team.for_task_us", probed),
	seriesMetric("team.spawn_us", "us", "lower", "team.New(2).Run of an empty region (probe)", "team.spawn_us", probed),
	seriesMetric("team.task_chunks_per_run", "count", "lower", "chunks the task executor scheduled (exact)", "team.task_chunks_per_run", traced),
	seriesMetric("team.steal_ratio", "ratio", "lower", "chunks run by a non-home worker over chunks scheduled", "team.steal_ratio", traced),
	seriesMetric("team.idle_ratio", "ratio", "lower", "steal probes that found an empty deque over all probes", "team.idle_ratio", traced),

	seriesMetric("mp.msgs_per_sp", "count", "lower", "transport messages per master safe point (exact)", "mp.msgs_per_sp", traced),
	seriesMetric("mp.bytes_per_sp", "bytes", "lower", "transport payload bytes per master safe point (exact)", "mp.bytes_per_sp", traced),
	seriesMetric("mp.send_recv_us_1mib", "us", "lower", "1 MiB send + 1-byte reply between 2 in-process ranks (probe)", "mp.send_recv_us_1mib", probed),
	seriesMetric("mp.gather_ms_4mib", "ms", "lower", "gather of 4 MiB of encoded floats per rank at the root, decoded (probe)", "mp.gather_ms_4mib", probed),

	seriesMetric("partition.scatter_rows_ms", "ms", "lower", "ScatterRows of the workload's grid over 2 ranks (probe)", "partition.scatter_rows_ms", probed),
	seriesMetric("partition.gather_ms", "ms", "lower", "GatherF64 of the grid's elements from 2 ranks (probe)", "partition.gather_ms", probed),

	seriesMetric("serial.clone_ms_per_mib", "ms/MiB", "lower", "Snapshot.Clone of the workload's checkpoint state (probe)", "serial.clone_ms_per_mib", probed),
	seriesMetric("serial.encode_ms_per_mib", "ms/MiB", "lower", "Snapshot.Encode (probe)", "serial.encode_ms_per_mib", probed),
	seriesMetric("serial.encode_parallel_ms_per_mib", "ms/MiB", "lower", "Snapshot.EncodeParallel (probe)", "serial.encode_parallel_ms_per_mib", probed),
	seriesMetric("serial.decode_ms_per_mib", "ms/MiB", "lower", "serial.Decode (probe)", "serial.decode_ms_per_mib", probed),
	seriesMetric("serial.diff_ms_per_mib", "ms/MiB", "lower", "StateHash.Diff against an unchanged state: the hashing floor (probe)", "serial.diff_ms_per_mib", probed),
	seriesMetric("serial.delta_encode_ms", "ms", "lower", "Delta.Encode of each delta the store decorator saw, in situ", "serial.delta_encode_ms", probed),
	seriesMetric("serial.delta_decode_ms", "ms", "lower", "serial.DecodeDelta of a link carrying one rewritten chunk (probe)", "serial.delta_decode_ms", probed),
	seriesMetric("serial.apply_ms", "ms", "lower", "Delta.Apply of the same link (probe)", "serial.apply_ms", probed),
	seriesMetric("serial.encode_alloc_bytes", "bytes", "lower", "heap bytes one Encode(io.Discard) allocates (probe)", "serial.encode_alloc_bytes", probed),
	seriesMetric("serial.encode_allocs", "count", "lower", "heap objects one Encode(io.Discard) allocates (probe)", "serial.encode_allocs", probed),

	seriesMetric("ckpt.save_ms", "ms", "lower", "Store.Save span, per call", "ckpt.save_ms", traced),
	seriesMetric("ckpt.save_delta_ms", "ms", "lower", "Store.SaveDelta span, per call", "ckpt.save_delta_ms", traced),
	seriesMetric("ckpt.save_shard_delta_ms", "ms", "lower", "Store.SaveShardDelta span, per call (leg A)", "ckpt.save_shard_delta_ms", traced),
	seriesMetric("ckpt.save_manifest_ms", "ms", "lower", "Store.SaveManifest span, per call (leg A)", "ckpt.save_manifest_ms", traced),
	seriesMetric("ckpt.put_chunk_us", "us", "lower", "PutChunk span below the dedup store, per call", "ckpt.put_chunk_us", traced),
	seriesMetric("ckpt.load_ms", "ms", "lower", "all Load* spans of one run, summed", "ckpt.load_ms", traced),
	seriesMetric("ckpt.ledger_us", "us", "lower", "LedgerStart/LedgerFinish/Crashed span, per call", "ckpt.ledger_us", traced),
	seriesMetric("ckpt.calls_per_run", "count", "lower", "timed store calls per run", "ckpt.calls_per_run", traced),
	seriesMetric("ckpt.errors", "count", "lower", "store calls that returned an error, per run", "ckpt.errors", traced),
	layerMetric("ckpt.persist_self_ms", "ms", "lower", "save_ms minus an in-situ Encode of the same snapshot: what the backend costs beyond serialisation",
		func(r *result) (float64, int) {
			save, n := med("ckpt.save_ms", traced)(r)
			enc, m := med("bench.insitu_encode_ms", traced)(r)
			if n == 0 || m == 0 {
				return 0, 0
			}
			return save - enc, min(n, m)
		}),
	seriesMetric("ckpt.physical_bytes_per_save", "bytes", "lower", "DedupStore physical bytes over checkpoints persisted (timing-dependent: async folding)", "ckpt.physical_bytes_per_save", untraced),
	seriesMetric("ckpt.chunk_dup_ratio", "ratio", "higher", "chunk puts that found the chunk present over all chunk puts", "ckpt.chunk_dup_ratio", traced),
	seriesMetric("ckpt.dedup_ratio", "ratio", "higher", "DedupStore logical over physical bytes", "ckpt.dedup_ratio", traced),
	seriesMetric("ckpt.load_resume_ms", "ms", "lower", "ckpt.LoadShardResume on the store leg A left (probe)", "ckpt.load_resume_ms", probed),
	seriesMetric("ckpt.reshard_ms", "ms", "lower", "ckpt.Reshard of leg A's shards (probe)", "ckpt.reshard_ms", probed),
	seriesMetric("ckpt.store_bytes_at_exit", "bytes", "lower", "bytes the store holds when the run ends", "ckpt.store_bytes_at_exit", traced),

	seriesMetric("fleet.submit_us", "us", "lower", "Supervisor.Submit span (validate + journal), per job", "fleet.submit_us", traced),
	seriesMetric("fleet.store_calls_per_job", "count", "lower", "timed store calls under the supervisor over jobs done", "fleet.store_calls_per_job", traced),
	layerMetric("fleet.hosted_overhead_frac", "fraction", "lower", "median of job latency over the same spec's bare-engine time, less 1",
		func(r *result) (float64, int) {
			v, n := med("fleet.hosted_ratio", untraced)(r)
			return v - 1, n
		}),

	seriesMetric("jgf.seq_baseline_s", "s", "lower", "the hand-written program: denominator of time_vs_handwritten", "base_s", untraced),

	seriesMetric("runtime.allocs_per_run", "count", "lower", "heap objects allocated across one traced repetition", "runtime.allocs_per_run", traced),
	seriesMetric("runtime.gc_cycles_per_run", "count", "lower", "GC cycles completed across one traced repetition", "runtime.gc_cycles_per_run", traced),
	seriesMetric("runtime.gc_pause_ms_per_run", "ms", "lower", "stop-the-world pause total across one traced repetition", "runtime.gc_pause_ms_per_run", traced),

	layerMetric("trace.overhead_frac", "fraction", "lower", "traced run_s over untraced run_s, less 1",
		ratio(med("run_s", func(r *result) []*window { return []*window{r.t} }), med("run_s", untraced), 1)),
}

// allEndToEnd is every metric held to a bound: the four the driver knows,
// then the workload-specific ones.
func allEndToEnd() []metric {
	ms := append([]metric(nil), endToEnd...)
	for _, m := range perLayer {
		if m.bound > 0 {
			ms = append(ms, m)
		}
	}
	return ms
}

// reported is one metric's value as printed and stored.
type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	// TailPct/Tail: the highest percentile that still has ten samples
	// beyond it, for metrics that are a plain series.
	TailPct int     `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
}

func evaluate(ms []metric, r *result) map[string]reported {
	out := map[string]reported{}
	for _, m := range ms {
		rep := reported{Unit: m.unit}
		if m.value != nil {
			rep.Value, rep.N = m.value(r)
		} else {
			for _, w := range m.pick(r) {
				if w == nil || len(w.get(m.series)) == 0 {
					continue
				}
				v := w.get(m.series)
				rep.Value, rep.N = median(v), len(v)
				if p, ok := tailPercentile(len(v)); ok {
					rep.TailPct, rep.Tail = p, percentile(v, float64(p))
				}
				break
			}
		}
		if rep.N == 0 || math.IsNaN(rep.Value) || math.IsInf(rep.Value, 0) {
			continue
		}
		out[m.name] = rep
	}
	return out
}
