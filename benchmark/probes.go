package main

import (
	"bytes"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"ppar/internal/ckpt"
	"ppar/internal/mp"
	"ppar/internal/partition"
	"ppar/internal/serial"
	"ppar/internal/team"
	"ppar/pp"
)

// Isolated probes: each calls one layer's public functions directly, outside
// any engine, on the workload's real state where a state is involved. They
// run after the traced pass and feed only per-layer metrics.

const probeReps = 7

// timed calls fn probeReps times and files each call's wall time under name,
// scaled from nanoseconds by scale.
func (w *window) timed(name string, scale float64, fn func()) {
	for i := 0; i < probeReps; i++ {
		t := time.Now()
		fn()
		w.add(name, float64(time.Since(t))*scale)
	}
}

// --- spans a traced repetition recorded -------------------------------------

// storeSeries files one repetition's store spans: a per-call series for each
// timed method, the time spent loading as a per-run total, and the call and
// error counts.
func storeSeries(w *window, rec *runRec, ts *timedStore) {
	if ts == nil || !rec.full {
		return
	}
	inner := ts.prefix != "ckpt"
	loadNs, loads := int64(0), 0
	for _, s := range rec.spans {
		method, ok := strings.CutPrefix(s.name, ts.prefix+".")
		if !ok || s.track != trackStore {
			if !inner && s.name == "bench.insitu_encode" {
				w.add("bench.insitu_encode_ms", float64(s.dur())/1e6)
			}
			continue
		}
		switch {
		case method == "put_chunk":
			w.add("ckpt.put_chunk_us", float64(s.dur())/1e3)
		case inner:
			// Below the dedup store only the chunk puts are a metric; the
			// envelope saves stay in the trace file.
		case method == "load":
			loadNs += s.dur()
			loads++
		case method == "ledger":
			w.add("ckpt.ledger_us", float64(s.dur())/1e3)
		default:
			w.add("ckpt."+method+"_ms", float64(s.dur())/1e6)
		}
	}
	if inner {
		return
	}
	if loads > 0 {
		w.add("ckpt.load_ms", float64(loadNs)/1e6)
	}
	w.add("ckpt.calls_per_run", float64(ts.calls.Load()))
	w.add("ckpt.errors", float64(ts.errs.Load()))
}

// spanSeries files what the master line's spans say about one traced
// repetition: the loop construct's overhead, the checkpointing safe points'
// self time, and the per-layer self-time totals of the attribution table.
func spanSeries(w *window, rec *runRec, runNs int64, isCkpt func(spSample) bool) {
	if !rec.full {
		return
	}
	self := selfTimes(rec.spans)
	totals := map[string]int64{}
	mainNs := int64(0)
	spIdx := 0
	for i, s := range rec.spans {
		if s.track != trackMaster && s.parent < 0 {
			continue // background work: it does not hold the master line
		}
		// "call:sor.red" is of class call, "ckpt.save" of class ckpt.
		class, _, _ := strings.Cut(s.name, ":")
		if class == s.name {
			class, _, _ = strings.Cut(s.name, ".")
		}
		switch class {
		case "main":
			mainNs += s.dur()
		case "for":
			w.add("core.forspan_overhead_us", float64(self[i])/1e3)
		case "sp":
			if spIdx < len(rec.sps) {
				sample := rec.sps[spIdx]
				spIdx++
				switch {
				case sample.replay:
					class = "sp_replay"
				case isCkpt(sample):
					class = "sp_ckpt"
					w.add("core.safepoint_ckpt_self_ms", float64(self[i])/1e6)
				default:
					class = "sp_idle"
				}
			}
		}
		totals[class] += self[i]
	}
	for class, ns := range totals {
		w.add("attr."+class+"_ms", float64(ns)/1e6)
	}
	w.add("attr.launch_ms", float64(runNs-mainNs)/1e6)
}

// --- serial -----------------------------------------------------------------

// fullSnapshotProbes times clone, encode, parallel encode, decode and diff
// of one full snapshot, per MiB of its payload, and the sequential encoder's
// allocations.
func fullSnapshotProbes(w *window, snap *serial.Snapshot) {
	mib := float64(snap.DataBytes()) / (1 << 20)
	if mib == 0 {
		return
	}
	msPerMiB := 1 / (1e6 * mib)

	w.timed("serial.clone_ms_per_mib", msPerMiB, func() {
		serial.RecycleSnapshot(snap.Clone())
	})
	var buf bytes.Buffer
	buf.Grow(snap.DataBytes() + 4096)
	w.timed("serial.encode_ms_per_mib", msPerMiB, func() {
		buf.Reset()
		_ = snap.Encode(&buf) // a bytes.Buffer write cannot fail
	})
	w.timed("serial.encode_parallel_ms_per_mib", msPerMiB, func() {
		_ = snap.EncodeParallel(io.Discard, 0)
	})
	encoded := buf.Bytes()
	w.timed("serial.decode_ms_per_mib", msPerMiB, func() {
		if _, err := serial.Decode(bytes.NewReader(encoded)); err != nil {
			panic("benchmark: a snapshot the engine saved does not decode: " + err.Error())
		}
	})
	h := serial.NewStateHash()
	h.Rehash(snap)
	w.timed("serial.diff_ms_per_mib", msPerMiB, func() {
		serial.RecycleDelta(h.Diff(snap, snap.SafePoints, false))
	})

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_ = snap.Encode(io.Discard)
	runtime.ReadMemStats(&m1)
	w.add("serial.encode_alloc_bytes", float64(m1.TotalAlloc-m0.TotalAlloc))
	w.add("serial.encode_allocs", float64(m1.Mallocs-m0.Mallocs))
	deltaProbes(w, snap)
}

// serialProbes replays the first full snapshot the store decorator saw in the
// traced pass, and files the in-situ encode times of the deltas it saw.
func serialProbes(w *window, p *storeProbe) {
	p.mu.Lock()
	base := p.base
	for _, ns := range p.deltaEncodeNs {
		w.add("serial.delta_encode_ms", float64(ns)/1e6)
	}
	p.mu.Unlock()
	if base == nil {
		return
	}
	snap, err := serial.Decode(bytes.NewReader(base))
	if err != nil {
		panic("benchmark: a snapshot the engine saved does not decode: " + err.Error())
	}
	fullSnapshotProbes(w, snap)
}

// deltaProbes times decoding and applying one delta link: the difference
// StateHash.Diff finds after the first chunk of snap's largest float field
// is rewritten — the shape of link stripe-delta-async-dedup saves.
func deltaProbes(w *window, snap *serial.Snapshot) {
	var target []float64
	for _, name := range sortedFieldNames(snap) {
		v := snap.Fields[name]
		switch {
		case v.Tag == serial.TFloat64s && len(v.Fs) > len(target):
			target = v.Fs
		case v.Tag == serial.TFloat64_2 && len(v.F2) > 0 && len(v.F2[0]) > len(target):
			target = v.F2[0]
		}
	}
	if len(target) == 0 {
		return
	}
	h := serial.NewStateHash()
	h.Rehash(snap)
	for i := 0; i < len(target) && i < serial.DeltaChunkElems; i++ {
		target[i] += 1
	}
	var link bytes.Buffer
	if err := h.Diff(snap, snap.SafePoints, false).Encode(&link); err != nil {
		panic("benchmark: encoding a probe delta: " + err.Error())
	}
	var d *serial.Delta
	w.timed("serial.delta_decode_ms", 1e-6, func() {
		var err error
		if d, err = serial.DecodeDelta(bytes.NewReader(link.Bytes())); err != nil {
			panic("benchmark: a delta the differ produced does not decode: " + err.Error())
		}
	})
	w.timed("serial.apply_ms", 1e-6, func() {
		if err := d.Apply(snap); err != nil {
			panic("benchmark: a delta the differ produced does not apply: " + err.Error())
		}
	})
}

func sortedFieldNames(snap *serial.Snapshot) []string {
	names := make([]string, 0, len(snap.Fields))
	for name := range snap.Fields {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// --- partition --------------------------------------------------------------

// partitionProbes splits the grid's rows over 2 ranks, and splits and
// reassembles the same number of elements as one flat vector (the package
// gathers vectors, not matrices).
func partitionProbes(w *window, g [][]float64) {
	rows := partition.New(partition.Block, len(g), 2)
	w.timed("partition.scatter_rows_ms", 1e-6, func() { _ = partition.ScatterRows(rows, g) })
	flat := make([]float64, 0, len(g)*len(g))
	for _, row := range g {
		flat = append(flat, row...)
	}
	l := partition.New(partition.Block, len(flat), 2)
	parts := partition.ScatterF64(l, flat)
	w.timed("partition.gather_ms", 1e-6, func() { _ = partition.GatherF64(l, parts) })
}

// --- ckpt -------------------------------------------------------------------

// restartProbes times the two steps of a re-sharding restart on the store
// leg A left: reading every rank's committed chain, and reassembling the
// shards into one canonical snapshot.
func restartProbes(w *window, dir, app string) {
	store, err := ckpt.NewFS(dir)
	if err != nil {
		return
	}
	var shards []*serial.Snapshot
	var man *serial.Manifest
	w.timed("ckpt.load_resume_ms", 1e-6, func() {
		var found bool
		shards, man, found, err = ckpt.LoadShardResume(store, app)
		if err != nil || !found {
			panic("benchmark: leg A's store holds no loadable shard checkpoint")
		}
	})
	var snap *serial.Snapshot
	w.timed("ckpt.reshard_ms", 1e-6, func() {
		snap, err = ckpt.Reshard(shards, app, man.SafePoints)
		if err != nil {
			panic("benchmark: leg A's shards do not reassemble: " + err.Error())
		}
	})
	fullSnapshotProbes(w, snap)
}

// --- team -------------------------------------------------------------------

func teamProbes(w *window, quick bool) {
	n := 10000
	if quick {
		n = 200
	}
	// region files the wall time of one parallel region of a team of 2, less
	// the cost of spawning it, per operation.
	spawnNs := 0.0
	region := func(name string, perOp float64, body func(tw *team.Worker)) {
		for i := 0; i < probeReps; i++ {
			t := time.Now()
			team.New(2).Run(body)
			w.add(name, (float64(time.Since(t))-spawnNs)*perOp)
		}
	}
	region("team.spawn_us", 1e-3, func(*team.Worker) {})
	spawnNs = median(w.get("team.spawn_us")) * 1e3
	region("team.barrier_ns", 1/float64(n), func(tw *team.Worker) {
		for i := 0; i < n; i++ {
			tw.Barrier()
		}
	})
	empty := func(lo, hi int) {}
	region("team.for_static_us", 1e-3/float64(n), func(tw *team.Worker) {
		for i := 0; i < n; i++ {
			tw.For(0, 256, team.Static, 1, empty)
			tw.Barrier()
		}
	})
	region("team.for_task_us", 1e-3/float64(n), func(tw *team.Worker) {
		for i := 0; i < n; i++ {
			tw.ForTask(0, 256, 16, empty)
			tw.Barrier()
		}
	})
}

// --- mp ---------------------------------------------------------------------

func mpProbes(w *window, quick bool) {
	rounds := 20
	if quick {
		rounds = 2
	}
	// Only rank 0 files samples, and World.Run returns after both ranks have.
	payload := make([]byte, 1<<20)
	world := mp.NewWorld(mp.NewInProc(2, nil), 2)
	err := world.Run(func(c *mp.Comm) error {
		for i := 0; i < rounds; i++ {
			t := time.Now()
			if c.Rank() == 0 {
				if err := c.Send(1, 1, payload); err != nil {
					return err
				}
				if _, err := c.Recv(1, 2); err != nil {
					return err
				}
				w.add("mp.send_recv_us_1mib", float64(time.Since(t))/1e3)
			} else {
				got, err := c.Recv(0, 1)
				if err != nil {
					return err
				}
				if err := c.Send(0, 2, got[:1]); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		panic("benchmark: mp probe: " + err.Error())
	}

	// Gather of 4 MiB of floats per rank at the root, encoded and decoded as
	// the engine's field gather does.
	vals := make([]float64, (4<<20)/8)
	world = mp.NewWorld(mp.NewInProc(2, nil), 2)
	err = world.Run(func(c *mp.Comm) error {
		for i := 0; i < rounds; i++ {
			t := time.Now()
			parts, err := c.Gather(0, mp.EncodeF64s(vals))
			if err != nil {
				return err
			}
			for _, p := range parts {
				_ = mp.DecodeF64s(p)
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				w.add("mp.gather_ms_4mib", float64(time.Since(t))/1e6)
			}
		}
		return nil
	})
	if err != nil {
		panic("benchmark: mp probe: " + err.Error())
	}
}

// --- core -------------------------------------------------------------------

// callProbe is a base program that does nothing but advised calls.
type callProbe struct {
	calls int
	ns    float64
}

func (p *callProbe) Main(ctx *pp.Ctx) {
	t := time.Now()
	for i := 0; i < p.calls; i++ {
		ctx.Call("probe.step", noop)
	}
	p.ns = float64(time.Since(t)) / float64(p.calls)
}

// coreProbes measures the cost of one advised ctx.Call on a sequential
// engine: the advice lookup and dispatch with nothing behind it.
func coreProbes(w *window, quick bool) {
	p := &callProbe{calls: 200000}
	if quick {
		p.calls = 2000
	}
	mod := pp.NewModule("probe").Ignorable("probe.step")
	for i := 0; i < probeReps; i++ {
		eng, err := pp.New(func() pp.App { return p }, pp.WithModules(mod))
		if err == nil {
			err = eng.Run()
		}
		if err != nil {
			panic("benchmark: core probe: " + err.Error())
		}
		w.add("core.call_ns", p.ns)
	}
}
