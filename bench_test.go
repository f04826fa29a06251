package ppar

// One benchmark per figure of the paper's evaluation (Figures 3-9), running
// the REAL engine at reduced scale, plus ablation benches for the design
// choices DESIGN.md calls out. `go run ./cmd/ppbench` prints the same
// series as tables (modelled at paper scale by default, -real for these
// code paths). Everything is written against the public options API of
// ppar/pp.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"context"

	"ppar/internal/autoscale"
	"ppar/internal/fleet"
	"ppar/internal/jgf"
	"ppar/internal/jgf/invasive"
	"ppar/internal/jgf/refimpl"
	"ppar/internal/md"
	"ppar/internal/metrics"
	"ppar/internal/serial"
	"ppar/pp"
)

const (
	benchN     = 256
	benchIters = 30
)

func benchOpts(mode pp.Mode, pe int, extra ...pp.Option) []pp.Option {
	opts := []pp.Option{
		pp.WithName("bench-sor"),
		pp.WithMode(mode),
		pp.WithModules(jgf.SORModules(mode)...),
	}
	switch mode {
	case pp.Shared:
		opts = append(opts, pp.WithThreads(pe))
	case pp.Distributed:
		opts = append(opts, pp.WithProcs(pe))
	case pp.Task:
		opts = append(opts, pp.WithThreads(pe), pp.WithOverdecompose(8))
	}
	return append(opts, extra...)
}

func runBench(b *testing.B, n, iters int, opts ...pp.Option) pp.Report {
	b.Helper()
	res := &jgf.SORResult{}
	eng, err := pp.New(func() pp.App { return jgf.NewSOR(n, iters, res) }, opts...)
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
	return eng.Report()
}

// --- Figure 3: checkpoint overhead --------------------------------------

func BenchmarkFig3_CheckpointOverhead(b *testing.B) {
	envs := []struct {
		name string
		mode pp.Mode
		pe   int
	}{
		{"seq", pp.Sequential, 1},
		{"2LE", pp.Shared, 2}, {"4LE", pp.Shared, 4},
		{"2P", pp.Distributed, 2}, {"4P", pp.Distributed, 4},
	}
	for _, e := range envs {
		e := e
		b.Run(e.name+"/original", func(b *testing.B) {
			// Parallelisation only, no checkpoint module.
			opts := []pp.Option{pp.WithName("bench-sor"), pp.WithMode(e.mode)}
			switch e.mode {
			case pp.Shared:
				opts = append(opts, pp.WithThreads(e.pe), pp.WithModules(jgf.SORSharedModule()))
			case pp.Distributed:
				opts = append(opts, pp.WithProcs(e.pe), pp.WithModules(jgf.SORDistModule()))
			}
			for i := 0; i < b.N; i++ {
				runBench(b, benchN, benchIters, opts...)
			}
		})
		b.Run(e.name+"/ckpt0", func(b *testing.B) {
			opts := benchOpts(e.mode, e.pe, pp.WithCheckpointDir(b.TempDir()))
			for i := 0; i < b.N; i++ {
				runBench(b, benchN, benchIters, opts...)
			}
		})
		b.Run(e.name+"/ckpt1", func(b *testing.B) {
			opts := benchOpts(e.mode, e.pe,
				pp.WithCheckpointDir(b.TempDir()),
				pp.WithCheckpointEvery(benchIters/2),
				pp.WithMaxCheckpoints(1))
			for i := 0; i < b.N; i++ {
				runBench(b, benchN, benchIters, opts...)
			}
		})
	}
	b.Run("seq/invasive-ckpt1", func(b *testing.B) {
		dir := b.TempDir()
		for i := 0; i < b.N; i++ {
			s := invasive.New(benchN, benchIters)
			if err := s.EnableCheckpoints(dir, benchIters/2, 1); err != nil {
				b.Fatal(err)
			}
			if err := s.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Figure 4: time to save checkpoint data ------------------------------

func BenchmarkFig4_SaveCheckpoint(b *testing.B) {
	envs := []struct {
		name string
		mode pp.Mode
		pe   int
	}{
		{"seq", pp.Sequential, 1},
		{"4LE", pp.Shared, 4},
		{"4P-gather", pp.Distributed, 4},
	}
	for _, e := range envs {
		e := e
		b.Run(e.name, func(b *testing.B) {
			opts := benchOpts(e.mode, e.pe,
				pp.WithCheckpointDir(b.TempDir()),
				pp.WithCheckpointEvery(benchIters/2),
				pp.WithMaxCheckpoints(1))
			var save, bytes int64
			for i := 0; i < b.N; i++ {
				rep := runBench(b, benchN, benchIters, opts...)
				save += rep.SaveTotal.Nanoseconds()
				bytes = int64(rep.SaveBytes)
			}
			b.ReportMetric(float64(save)/float64(b.N), "save-ns/op")
			b.ReportMetric(float64(bytes), "ckpt-bytes")
		})
	}
}

// --- Figure 5: restart overhead ------------------------------------------

func BenchmarkFig5_Restart(b *testing.B) {
	for _, e := range []struct {
		name string
		mode pp.Mode
		pe   int
	}{
		{"seq", pp.Sequential, 1},
		{"4LE", pp.Shared, 4},
		{"4P", pp.Distributed, 4},
	} {
		e := e
		b.Run(e.name, func(b *testing.B) {
			var replay, load int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := b.TempDir()
				res := &jgf.SORResult{}
				factory := func() pp.App { return jgf.NewSOR(benchN, benchIters, res) }
				eng, err := pp.New(factory, benchOpts(e.mode, e.pe,
					pp.WithCheckpointDir(dir),
					pp.WithCheckpointEvery(10),
					pp.WithFailureAt(benchIters-5, 0))...)
				if err != nil {
					b.Fatal(err)
				}
				if err := eng.Run(); !errors.Is(err, pp.ErrInjectedFailure) {
					b.Fatalf("failure did not fire: %v", err)
				}
				eng2, err := pp.New(factory, benchOpts(e.mode, e.pe,
					pp.WithCheckpointDir(dir),
					pp.WithCheckpointEvery(10))...)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := eng2.Run(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				rep := eng2.Report()
				replay += rep.ReplayTime.Nanoseconds()
				load += rep.LoadTotal.Nanoseconds()
			}
			b.ReportMetric(float64(replay)/float64(b.N), "replay-ns/op")
			b.ReportMetric(float64(load)/float64(b.N), "load-ns/op")
		})
	}
}

// --- Figure 6: restart on more resources ----------------------------------

func BenchmarkFig6_RestartWider(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		res := &jgf.SORResult{}
		factory := func() pp.App { return jgf.NewSOR(benchN, benchIters, res) }
		eng, err := pp.New(factory, benchOpts(pp.Distributed, 2,
			pp.WithCheckpointDir(dir), pp.WithStopAt(benchIters/2))...)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := eng.Run(); err == nil {
			b.Fatal("did not stop for adaptation")
		}
		eng2, err := pp.New(factory, benchOpts(pp.Distributed, 8,
			pp.WithCheckpointDir(dir))...)
		if err != nil {
			b.Fatal(err)
		}
		if err := eng2.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 7: run-time expansion vs restart expansion --------------------

func BenchmarkFig7_RuntimeAdapt(b *testing.B) {
	for _, from := range []int{2, 4} {
		from := from
		b.Run(fmt.Sprintf("from-%dLE", from), func(b *testing.B) {
			opts := benchOpts(pp.Shared, from,
				pp.WithAdaptAt(benchIters/2, pp.AdaptTarget{Threads: 8}))
			for i := 0; i < b.N; i++ {
				rep := runBench(b, benchN, benchIters, opts...)
				if !rep.Adapted {
					b.Fatal("did not adapt")
				}
			}
		})
	}
}

func BenchmarkFig7_RestartAdapt(b *testing.B) {
	for _, from := range []int{2, 4} {
		from := from
		b.Run(fmt.Sprintf("from-%dLE", from), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := b.TempDir()
				res := &jgf.SORResult{}
				factory := func() pp.App { return jgf.NewSOR(benchN, benchIters, res) }
				eng, err := pp.New(factory, benchOpts(pp.Shared, from,
					pp.WithCheckpointDir(dir), pp.WithStopAt(benchIters/2))...)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := eng.Run(); err == nil {
					b.Fatal("did not stop")
				}
				eng2, err := pp.New(factory, benchOpts(pp.Shared, 8,
					pp.WithCheckpointDir(dir))...)
				if err != nil {
					b.Fatal(err)
				}
				if err := eng2.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 8: over-decomposition ------------------------------------------

func BenchmarkFig8_OverDecomposition(b *testing.B) {
	const pe = 4
	for _, of := range []int{1, 2, 4, 8, 16} {
		of := of
		b.Run(fmt.Sprintf("of-%d", of), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runBench(b, benchN, benchIters, benchOpts(pp.Task, pe, pp.WithOverdecompose(of))...)
			}
		})
	}
}

// --- Figure 9: adaptability overhead ----------------------------------------

func BenchmarkFig9_JGFSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		refimpl.Sequential(benchN, benchIters)
	}
}

func BenchmarkFig9_JGFThreads(b *testing.B) {
	for _, pe := range []int{2, 4} {
		pe := pe
		b.Run(fmt.Sprintf("%dT", pe), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				refimpl.Threads(benchN, benchIters, pe)
			}
		})
	}
}

func BenchmarkFig9_JGFMPI(b *testing.B) {
	for _, pe := range []int{2, 4} {
		pe := pe
		b.Run(fmt.Sprintf("%dP", pe), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := refimpl.MPI(benchN, benchIters, pe, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig9_Adaptive(b *testing.B) {
	for _, tc := range []struct {
		name string
		mode pp.Mode
		pe   int
	}{{"seq", pp.Sequential, 1}, {"4LE", pp.Shared, 4}, {"4P", pp.Distributed, 4}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			opts := benchOpts(tc.mode, tc.pe)
			for i := 0; i < b.N; i++ {
				runBench(b, benchN, benchIters, opts...)
			}
		})
	}
}

// --- Ablations ---------------------------------------------------------------

// Gather-at-master vs per-rank shard checkpoints (§IV.A's two distributed
// alternatives).
func BenchmarkAblation_DistCheckpointStrategy(b *testing.B) {
	for _, tc := range []struct {
		name   string
		shards bool
	}{{"gather-at-master", false}, {"local-shards", true}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			opts := benchOpts(pp.Distributed, 4,
				pp.WithCheckpointDir(b.TempDir()),
				pp.WithCheckpointEvery(10))
			if tc.shards {
				opts = append(opts, pp.WithShardCheckpoints())
			}
			var save int64
			for i := 0; i < b.N; i++ {
				rep := runBench(b, benchN, benchIters, opts...)
				save += rep.SaveTotal.Nanoseconds()
			}
			b.ReportMetric(float64(save)/float64(b.N), "save-ns/op")
		})
	}
}

// Checkpoint backends: the pluggable Store swap (filesystem vs in-memory vs
// gzip-compressed).
func BenchmarkAblation_StoreBackend(b *testing.B) {
	stores := []struct {
		name string
		mk   func(b *testing.B) pp.Store
	}{
		{"fs", func(b *testing.B) pp.Store {
			s, err := pp.NewFSStore(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			return s
		}},
		{"mem", func(b *testing.B) pp.Store { return pp.NewMemStore() }},
		{"gzip-fs", func(b *testing.B) pp.Store {
			s, err := pp.NewFSStore(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			return pp.NewGzipStore(s)
		}},
		{"gzip-mem", func(b *testing.B) pp.Store { return pp.NewGzipStore(pp.NewMemStore()) }},
	}
	for _, tc := range stores {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			opts := benchOpts(pp.Shared, 4,
				pp.WithStore(tc.mk(b)),
				pp.WithCheckpointEvery(10))
			var save int64
			for i := 0; i < b.N; i++ {
				rep := runBench(b, benchN, benchIters, opts...)
				save += rep.SaveTotal.Nanoseconds()
			}
			b.ReportMetric(float64(save)/float64(b.N), "save-ns/op")
		})
	}
}

// Safe-point interval: checkpoint overhead vs computation lost (the §IV.A
// trade-off).
func BenchmarkAblation_CheckpointInterval(b *testing.B) {
	for _, every := range []uint64{5, 10, 15, 30} {
		every := every
		b.Run(fmt.Sprintf("every-%d", every), func(b *testing.B) {
			opts := benchOpts(pp.Sequential, 1,
				pp.WithCheckpointDir(b.TempDir()),
				pp.WithCheckpointEvery(every))
			for i := 0; i < b.N; i++ {
				runBench(b, benchN, benchIters, opts...)
			}
		})
	}
}

// Loop schedules: the pluggable module swap of §III.B.
func BenchmarkAblation_LoopSchedule(b *testing.B) {
	mods := map[string]*pp.Module{
		"static":     jgf.SORSharedModule(),
		"dynamic-8":  jgf.SORSharedDynamicModule(8),
		"dynamic-32": jgf.SORSharedDynamicModule(32),
	}
	for name, mod := range mods {
		mod := mod
		b.Run(name, func(b *testing.B) {
			opts := []pp.Option{
				pp.WithName("bench-sor"),
				pp.WithMode(pp.Shared), pp.WithThreads(4),
				pp.WithModules(mod, jgf.SORCheckpointModule()),
			}
			for i := 0; i < b.N; i++ {
				runBench(b, benchN, benchIters, opts...)
			}
		})
	}
}

// Transports: in-process channels vs TCP loopback.
func BenchmarkAblation_Transport(b *testing.B) {
	for _, tc := range []struct {
		name string
		tcp  bool
	}{{"inproc", false}, {"tcp", true}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			opts := benchOpts(pp.Distributed, 4)
			if tc.tcp {
				opts = append(opts, pp.WithTCP())
			}
			for i := 0; i < b.N; i++ {
				runBench(b, benchN, benchIters, opts...)
			}
		})
	}
}

// The cost of an advised call vs the machinery-free base code: what the
// "pluggable" indirection itself costs.
func BenchmarkAblation_CallOverhead(b *testing.B) {
	b.Run("unplugged-engine", func(b *testing.B) {
		opts := []pp.Option{pp.WithName("bench-sor"), pp.WithMode(pp.Sequential)}
		for i := 0; i < b.N; i++ {
			runBench(b, benchN, benchIters, opts...)
		}
	})
	b.Run("hand-written", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refimpl.Sequential(benchN, benchIters)
		}
	})
}

// --- In-process cross-mode migration --------------------------------------

// BenchmarkModeMigration measures the cost of migrating a live run across
// executors at a safe point (snapshot to the internal memory store, executor
// teardown, relaunch, replay to the migration point) against the in-place
// and restart-free baseline. MigrationTotal is the blocked span from the
// snapshot capture to the replay target under the new executor.
func BenchmarkModeMigration(b *testing.B) {
	// The full module set: a migrating run carries the advice of every mode
	// it may land in, exactly like a cross-mode restart.
	base := []pp.Option{
		pp.WithName("bench-sor"),
		pp.WithModules(jgf.SORModules(pp.Hybrid)...),
	}
	for _, tc := range []struct {
		name string
		opts []pp.Option
	}{
		{"smp4-to-dist4", []pp.Option{
			pp.WithMode(pp.Shared), pp.WithThreads(4),
			pp.WithAdaptAt(benchIters/2, pp.AdaptTarget{Mode: pp.Distributed, Procs: 4})}},
		{"dist4-to-smp4", []pp.Option{
			pp.WithMode(pp.Distributed), pp.WithProcs(4),
			pp.WithAdaptAt(benchIters/2, pp.AdaptTarget{Mode: pp.Shared, Threads: 4})}},
		{"smp4-to-dist4-ckpt", []pp.Option{
			pp.WithMode(pp.Shared), pp.WithThreads(4),
			pp.WithStore(pp.NewMemStore()), pp.WithCheckpointEvery(5),
			pp.WithAdaptAt(benchIters/2, pp.AdaptTarget{Mode: pp.Distributed, Procs: 4})}},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var blocked int64
			for i := 0; i < b.N; i++ {
				rep := runBench(b, benchN, benchIters, append(append([]pp.Option{}, base...), tc.opts...)...)
				if rep.Migrations != 1 {
					b.Fatalf("want 1 migration, got %+v", rep)
				}
				blocked += rep.MigrationTotal.Nanoseconds()
			}
			b.ReportMetric(float64(blocked)/float64(b.N), "migration-ns/op")
		})
	}
}

// --- Sharded checkpoint pipeline -----------------------------------------

// BenchmarkShardCheckpoint measures per-rank parallel shard persistence on
// the distributed SOR kernel: blocked-ns/ckpt is the time lines of
// execution stand inside the two save barriers. The sync variant pays each
// rank's encode+persist there (concurrently across ranks); the async
// variant only the per-rank double-buffer capture, with the bounded pool
// persisting links and committing the wave manifests in the background; the
// delta variant additionally ships only each rank's changed chunks.
func BenchmarkShardCheckpoint(b *testing.B) {
	for _, tc := range []struct {
		name string
		opts []pp.Option
	}{
		{"sync", []pp.Option{pp.WithCheckpointEvery(5)}},
		{"async", []pp.Option{pp.WithCheckpointEvery(5), pp.WithAsyncCheckpoint()}},
		{"delta-async", []pp.Option{pp.WithDeltaCheckpoint(5, 4), pp.WithAsyncCheckpoint()}},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			opts := append(benchOpts(pp.Distributed, 4,
				pp.WithCheckpointDir(b.TempDir()),
				pp.WithShardCheckpoints()), tc.opts...)
			var blocked, background, ckpts, links, bytes int64
			for i := 0; i < b.N; i++ {
				rep := runBench(b, benchN, benchIters, opts...)
				blocked += rep.SaveTotal.Nanoseconds()
				background += rep.AsyncSaveTotal.Nanoseconds()
				ckpts += int64(rep.Checkpoints)
				links += int64(rep.ShardSaves)
				bytes += int64(rep.ShardBytes)
			}
			if ckpts == 0 || links == 0 {
				b.Fatal("no shard waves committed")
			}
			b.ReportMetric(float64(blocked)/float64(ckpts), "blocked-ns/ckpt")
			b.ReportMetric(float64(background)/float64(b.N), "bg-write-ns/op")
			b.ReportMetric(float64(bytes)/float64(ckpts), "shard-bytes/ckpt")
			b.ReportMetric(float64(links)/float64(ckpts), "links/ckpt")
		})
	}
}

// --- Asynchronous checkpoint pipeline -----------------------------------

// Sync vs async checkpointing on the SOR kernel. SaveTotal is the time
// lines of execution stood blocked at the save barrier: synchronous saves
// pay encode+fsync there, the async pipeline only the double-buffer
// capture (the persist overlaps computation and lands in AsyncSaveTotal).
func BenchmarkAsyncCheckpointSOR(b *testing.B) {
	for _, tc := range []struct {
		name  string
		async bool
	}{{"sync", false}, {"async", true}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			opts := benchOpts(pp.Shared, 4,
				pp.WithCheckpointDir(b.TempDir()),
				pp.WithCheckpointEvery(5))
			if tc.async {
				opts = append(opts, pp.WithAsyncCheckpoint())
			}
			var blocked, background, drain, ckpts int64
			for i := 0; i < b.N; i++ {
				rep := runBench(b, benchN, benchIters, opts...)
				blocked += rep.SaveTotal.Nanoseconds()
				background += rep.AsyncSaveTotal.Nanoseconds()
				drain += rep.DrainTotal.Nanoseconds()
				ckpts += int64(rep.Checkpoints)
			}
			if ckpts == 0 {
				b.Fatal("no checkpoints persisted")
			}
			b.ReportMetric(float64(blocked)/float64(b.N), "blocked-ns/op")
			b.ReportMetric(float64(blocked)/float64(ckpts), "blocked-ns/ckpt")
			b.ReportMetric(float64(background)/float64(b.N), "bg-write-ns/op")
			b.ReportMetric(float64(drain)/float64(b.N), "drain-ns/op")
		})
	}
}

// --- Incremental (delta) checkpoint pipeline ------------------------------

// stripeBench is a workload with mostly-stable safe data: one large state
// vector of which each iteration rewrites exactly one diff chunk — the
// shape incremental checkpointing is built for. The benchmark compares
// bytes written per checkpoint (and blocked save time) for full vs delta
// pipelines.
type stripeBench struct {
	State []float64
	It    int
	iters int
}

func (s *stripeBench) Main(ctx *pp.Ctx) {
	ctx.Call("run", func(ctx *pp.Ctx) {
		chunks := len(s.State) / serial.DeltaChunkElems
		for it := 0; it < s.iters; it++ {
			s.It = it
			off := (it % chunks) * serial.DeltaChunkElems
			pp.ForSpan(ctx, "stripe", off, off+serial.DeltaChunkElems, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					s.State[i] = float64(it*1000 + i)
				}
			})
			ctx.Call("iter", func(*pp.Ctx) {})
		}
	})
}

func BenchmarkDeltaCheckpoint(b *testing.B) {
	const stripeChunks, stripeIters = 16, 32
	mods := []*pp.Module{pp.NewModule("stripe/ckpt").
		SafeData("State").SafeData("It").
		SafePointAfter("iter")}
	// The -dedup variants route the same pipeline through a DedupStore over
	// the filesystem store: the stripe state is mostly stable between
	// captures, so consecutive full snapshots share almost every chunk and
	// the reported dedup-ratio must exceed 1 (gated higher-is-better by
	// benchjson -compare).
	for _, tc := range []struct {
		name  string
		dedup bool
		opts  []pp.Option
	}{
		{"full", false, []pp.Option{pp.WithCheckpointEvery(1)}},
		{"full-dedup", true, []pp.Option{pp.WithCheckpointEvery(1)}},
		{"delta", false, []pp.Option{pp.WithDeltaCheckpoint(1, 8)}},
		{"delta-async", false, []pp.Option{pp.WithDeltaCheckpoint(1, 8), pp.WithAsyncCheckpoint()}},
		{"delta-async-dedup", true, []pp.Option{pp.WithDeltaCheckpoint(1, 8), pp.WithAsyncCheckpoint()}},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			opts := []pp.Option{
				pp.WithName("bench-stripe"),
				pp.WithModules(mods...),
			}
			var ds *pp.DedupStore
			if tc.dedup {
				fs, err := pp.NewFSStore(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				ds = pp.NewDedupStore(fs)
				opts = append(opts, pp.WithStore(ds))
			} else {
				opts = append(opts, pp.WithCheckpointDir(b.TempDir()))
			}
			opts = append(opts, tc.opts...)
			var blocked, bytes, ckpts int64
			for i := 0; i < b.N; i++ {
				eng, err := pp.New(func() pp.App {
					return &stripeBench{State: make([]float64, stripeChunks*serial.DeltaChunkElems), iters: stripeIters}
				}, opts...)
				if err != nil {
					b.Fatal(err)
				}
				if err := eng.Run(); err != nil {
					b.Fatal(err)
				}
				rep := eng.Report()
				if rep.Checkpoints == 0 {
					b.Fatal("no checkpoints persisted")
				}
				blocked += rep.SaveTotal.Nanoseconds()
				ckpts += int64(rep.Checkpoints)
				full := rep.FullSaves
				if rep.DeltaSaves == 0 {
					// Full pipeline: every persisted snapshot is SaveBytes.
					bytes += int64(rep.SaveBytes) * int64(full)
					continue
				}
				fullSize := stripeChunks*serial.DeltaChunkElems*8 + 8 // State + It payloads
				bytes += int64(fullSize)*int64(full) + int64(rep.DeltaBytes)
			}
			b.ReportMetric(float64(bytes)/float64(ckpts), "bytes/ckpt")
			b.ReportMetric(float64(blocked)/float64(ckpts), "blocked-ns/ckpt")
			if ds != nil {
				st := ds.Stats()
				b.ReportMetric(metrics.Ratio(float64(st.LogicalBytes), float64(st.PhysicalBytes)), "dedup-ratio")
			}
		})
	}
}

// The same comparison on the molecular-dynamics kernel, whose safe data is
// three flat phase-space arrays instead of one matrix.
func BenchmarkAsyncCheckpointMD(b *testing.B) {
	const atoms, steps = 512, 20
	for _, tc := range []struct {
		name  string
		async bool
	}{{"sync", false}, {"async", true}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			opts := []pp.Option{
				pp.WithName("bench-md"),
				pp.WithMode(pp.Shared), pp.WithThreads(4),
				pp.WithModules(md.Modules(pp.Shared)...),
				pp.WithCheckpointDir(b.TempDir()),
				pp.WithCheckpointEvery(5),
			}
			if tc.async {
				opts = append(opts, pp.WithAsyncCheckpoint())
			}
			var blocked, background int64
			for i := 0; i < b.N; i++ {
				res := &md.Observables{}
				eng, err := pp.New(func() pp.App { return md.New(md.LennardJones{}, atoms, steps, res) }, opts...)
				if err != nil {
					b.Fatal(err)
				}
				if err := eng.Run(); err != nil {
					b.Fatal(err)
				}
				rep := eng.Report()
				if rep.Checkpoints == 0 {
					b.Fatal("no checkpoints persisted")
				}
				blocked += rep.SaveTotal.Nanoseconds()
				background += rep.AsyncSaveTotal.Nanoseconds()
			}
			b.ReportMetric(float64(blocked)/float64(b.N), "blocked-ns/op")
			b.ReportMetric(float64(background)/float64(b.N), "bg-write-ns/op")
		})
	}
}

// --- Fleet hosting overhead ---------------------------------------------

// BenchmarkFleetOverhead prices what the fleet layer adds on top of a bare
// engine: the same sequential SOR job run directly through pp.New(...).Run()
// versus submitted to a warm fleet.Supervisor (journal write, admission,
// budget scheduling, namespaced store, status plumbing) and awaited.
func BenchmarkFleetOverhead(b *testing.B) {
	const n, iters = 64, 50

	b.Run("bare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := &jgf.SORResult{}
			eng, err := pp.New(func() pp.App { return jgf.NewSOR(n, iters, res) },
				pp.WithName("bench-fleet-bare"),
				pp.WithModules(jgf.SORModules(pp.Sequential)...),
				pp.WithStore(pp.NewMemStore()),
				pp.WithCheckpointEvery(8),
			)
			if err != nil {
				b.Fatal(err)
			}
			if err := eng.Run(); err != nil {
				b.Fatal(err)
			}
			if res.Gtotal == 0 {
				b.Fatal("sor produced no result")
			}
		}
	})

	b.Run("hosted", func(b *testing.B) {
		sup, err := fleet.New(fleet.Config{Store: pp.NewMemStore(), Budget: 1})
		if err != nil {
			b.Fatal(err)
		}
		fleet.StockWorkloads(sup)
		if _, err := sup.Start(); err != nil {
			b.Fatal(err)
		}
		defer sup.Close()
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id, err := sup.Submit(fleet.JobSpec{
				Tenant:          "bench",
				Workload:        "sor",
				Params:          map[string]int{"n": n, "iters": iters},
				CheckpointEvery: 8,
			})
			if err != nil {
				b.Fatal(err)
			}
			st, err := sup.WaitJob(ctx, id)
			if err != nil {
				b.Fatal(err)
			}
			if st.State != fleet.Done {
				b.Fatalf("hosted job ended %s: %s", st.State, st.Error)
			}
		}
	})
}

// --- AutoScale controller overhead ----------------------------------------

// BenchmarkAutoScale measures the per-sample cost of the closed-loop
// controller: one Step per monitor tick folds the rate window, re-anchors
// the fitted curves and scores the candidate shapes. The synthetic State
// stream replays a converging run, so the deciding path is paid while the
// controller still moves and the quiet steady-state path dominates the
// tail — the realistic mix a long run sees. Engine-side cost is zero when
// no decision fires, so this IS the autoscaling overhead.
func BenchmarkAutoScale(b *testing.B) {
	b.Run("step", func(b *testing.B) {
		b.ReportAllocs()
		a := autoscale.New(autoscale.Config{MoveCost: 10 * time.Millisecond})
		shape := autoscale.Shape{Mode: pp.Shared, Threads: 1, Procs: 1}
		var now time.Duration
		sp, moves := 0.0, 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now += 5 * time.Millisecond
			sp += 0.005 / (0.004/float64(shape.Threads) + 0.0001)
			st := autoscale.State{
				SP: uint64(sp), Now: now, Shape: shape,
				Moves: moves, MoveTotal: time.Duration(moves) * 10 * time.Millisecond,
				CapThreads: 8, CapProcs: 1,
			}
			d, ok := a.Step(st)
			if !ok {
				continue
			}
			if d.Target.Threads > 0 {
				shape.Threads = d.Target.Threads
			}
			moves++
		}
	})
}

// --- Skewed workloads: work stealing vs static schedules ------------------

// The Task executor's case: on kernels whose per-iteration cost is skewed
// across the index space, a static split parks the hot band on a few workers
// and every barrier waits for them; overdecomposition plus stealing spreads
// it. Each benchmark runs the skew-blind static smp schedule and the Task
// executor (8 workers, k=8) on the same deterministic kernel. The speedup is
// only observable with real cores (CI pins GOMAXPROCS=1, where both legs
// degenerate to the same serialized work); the gate watches each leg's own
// trajectory, and `go run ./cmd/ppbench -skew` prints the comparison on the
// host machine. chunks/op is deterministic (iterations × workers × k) and
// gated; steal counts are scheduling noise and deliberately unreported.
const (
	skewPE           = 8
	skewK            = 8
	skewCryptN       = 64 * 1024 // bytes: 8192 blocks, first 1024 hot
	skewCryptHotCost = 16
	skewSparseN      = 1024
	skewSparseNNZ    = 4
	skewSparseIters  = 8
)

type skewLeg struct {
	name    string
	mode    pp.Mode
	modules func(pp.Mode) []*pp.Module
	opts    []pp.Option
}

func skewLegs(modules func(pp.Mode) []*pp.Module, static *pp.Module, ckpt *pp.Module) []skewLeg {
	staticSet := func(pp.Mode) []*pp.Module { return []*pp.Module{static, ckpt} }
	return []skewLeg{
		{"smp-static8", pp.Shared, staticSet, []pp.Option{pp.WithThreads(skewPE)}},
		{"task8-k8", pp.Task, modules, []pp.Option{pp.WithThreads(skewPE), pp.WithOverdecompose(skewK)}},
	}
}

func runSkewLeg(b *testing.B, l skewLeg, name string, factory pp.Factory) pp.Report {
	b.Helper()
	opts := append([]pp.Option{
		pp.WithName(name),
		pp.WithMode(l.mode),
		pp.WithModules(l.modules(l.mode)...),
	}, l.opts...)
	eng, err := pp.New(factory, opts...)
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
	return eng.Report()
}

func BenchmarkSkewedCrypt(b *testing.B) {
	for _, l := range skewLegs(jgf.CryptModules, jgf.CryptSharedModule(), jgf.CryptCheckpointModule()) {
		l := l
		b.Run(l.name, func(b *testing.B) {
			var rep pp.Report
			for i := 0; i < b.N; i++ {
				res := &jgf.CryptResult{}
				rep = runSkewLeg(b, l, "bench-skew-crypt", func() pp.App {
					return jgf.NewCryptSkewed(skewCryptN, skewCryptHotCost, res)
				})
				if !res.OK {
					b.Fatal("skewed crypt round-trip failed validation")
				}
			}
			if rep.TaskChunks > 0 {
				b.ReportMetric(float64(rep.TaskChunks), "chunks/op")
			}
		})
	}
}

func BenchmarkSkewedSparse(b *testing.B) {
	for _, l := range skewLegs(jgf.SparseModules, jgf.SparseSharedStaticModule(), jgf.SparseCheckpointModule()) {
		l := l
		b.Run(l.name, func(b *testing.B) {
			var rep pp.Report
			var want float64
			for i := 0; i < b.N; i++ {
				res := &jgf.SparseResult{}
				rep = runSkewLeg(b, l, "bench-skew-sparse", func() pp.App {
					return jgf.NewSparseSkewed(skewSparseN, skewSparseNNZ, skewSparseIters, res)
				})
				if res.Ytotal == 0 {
					b.Fatal("skewed sparse produced no result")
				}
				if want == 0 {
					want = res.Ytotal
				} else if res.Ytotal != want {
					b.Fatalf("skewed sparse diverged: %v vs %v", res.Ytotal, want)
				}
			}
			if rep.TaskChunks > 0 {
				b.ReportMetric(float64(rep.TaskChunks), "chunks/op")
			}
		})
	}
}

// BenchmarkSkewedControl is the other half of the Task executor's contract:
// on REGULAR kernels (uniform SOR), overdecomposition and stealing must cost
// nearly nothing against the static smp schedule. Both legs are gated, so a
// scheduler change that taxes the regular path shows up here even at
// GOMAXPROCS=1.
func BenchmarkSkewedControl(b *testing.B) {
	for _, l := range []struct {
		name string
		mode pp.Mode
	}{
		{"sor-smp8", pp.Shared},
		{"sor-task8-k8", pp.Task},
	} {
		l := l
		b.Run(l.name, func(b *testing.B) {
			opts := benchOpts(l.mode, skewPE)
			for i := 0; i < b.N; i++ {
				runBench(b, benchN, benchIters, opts...)
			}
		})
	}
}
