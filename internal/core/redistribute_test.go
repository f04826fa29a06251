package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ppar/internal/mp"
	"ppar/internal/partition"
)

// An in-process gather hands the peer's packed block to the root as is: the
// only allocation in proportion to the field is the peer's one packed copy
// (the root packs nothing, and nothing is byte-encoded or decoded).
func TestGatherAtAllocatesOneBlock(t *testing.T) {
	const n, parts = 1000, 2
	mod := NewModule("t").PartitionedField("Grid", partition.Block)
	apps := make([]*fieldApp, parts)
	bound := make([]*boundFields, parts)
	for r := range apps {
		apps[r] = &fieldApp{Grid: make([][]float64, n)}
		for i := range apps[r].Grid {
			apps[r].Grid[i] = make([]float64, n)
			for j := range apps[r].Grid[i] {
				apps[r].Grid[i][j] = float64(r*n*n + i*n + j)
			}
		}
		b, err := bindFields(apps[r], specsOf(mod))
		if err != nil {
			t.Fatal(err)
		}
		bound[r] = b
	}
	tr := mp.NewInProc(parts, nil)
	defer tr.Close()
	world := mp.NewWorld(tr, parts)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := world.Run(func(c *mp.Comm) error {
		return bound[c.Rank()].gatherAt("Grid", c, 0, parts)
	})
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	const block = 8 * n * n / parts
	got := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("2-rank gather of a %dx%d field allocated %d bytes", n, n, got)
	if got > 4_100_000 {
		t.Errorf("2-rank gather of a %dx%d field allocated %d bytes, want at most one %d-byte block (<= 4.1 MB)", n, n, got, block)
	}
	for i := n / parts; i < n; i++ {
		if got, want := apps[0].Grid[i][7], float64(n*n+i*n+7); got != want {
			t.Fatalf("root row %d = %v after the gather, want rank 1's %v", i, got, want)
		}
	}
}

// The typed path changes how a message is carried, not what is sent: a
// fixed 2-rank run with checkpoints shows the DelayFunc the same message
// count and byte total as the byte-encoded path did. The constants were
// measured on the byte-encoded transport.
func TestDelayTrafficUnchangedByTypedPath(t *testing.T) {
	const wantMsgs, wantBytes = 53, 20736
	var msgs, nbytes atomic.Int64
	_, rep := runStencil(t, Config{
		Mode: Distributed, Procs: 2,
		CheckpointDir: t.TempDir(), CheckpointEvery: 4,
		Delay: func(from, to, n int) time.Duration {
			msgs.Add(1)
			nbytes.Add(int64(n))
			return 0
		},
	})
	if rep.Checkpoints != tIters/4 {
		t.Fatalf("checkpoints = %d, want %d", rep.Checkpoints, tIters/4)
	}
	if msgs.Load() != wantMsgs || nbytes.Load() != wantBytes {
		t.Fatalf("DelayFunc saw %d messages / %d bytes, want %d / %d", msgs.Load(), nbytes.Load(), wantMsgs, wantBytes)
	}
}

// The transport is invisible in the checkpoint: the same distributed run
// over the typed in-process path and over TCP's wire form writes
// byte-identical canonical files.
func TestCheckpointBytesSameOverInProcAndTCP(t *testing.T) {
	files := func(tcp bool) map[string][]byte {
		dir := t.TempDir()
		runStencil(t, Config{Mode: Distributed, Procs: 2, TCP: tcp, CheckpointDir: dir, CheckpointEvery: 4})
		names, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		for _, name := range names {
			b, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			out[filepath.Base(name)] = b
		}
		return out
	}
	inproc, tcp := files(false), files(true)
	if len(inproc) == 0 {
		t.Fatal("the run left no .ckpt file")
	}
	if len(inproc) != len(tcp) {
		t.Fatalf("in-process run left %d .ckpt files, TCP run %d", len(inproc), len(tcp))
	}
	for name, b := range inproc {
		if !bytes.Equal(b, tcp[name]) {
			t.Errorf("%s differs between the in-process and the TCP run (%d vs %d bytes)", name, len(b), len(tcp[name]))
		}
	}
}

// pacedApp spends a fixed wall time per iteration in an ignorable method, so
// a replay — which skips it — is short next to live execution.
type pacedApp struct {
	Steps []float64
	Iters int
}

func (a *pacedApp) Main(ctx *Ctx) { ctx.Call("run", a.run) }

func (a *pacedApp) run(ctx *Ctx) {
	for it := 0; it < a.Iters; it++ {
		ctx.Call("work", a.work)
		ctx.Call("iter", func(*Ctx) {})
	}
}

func (a *pacedApp) work(*Ctx) {
	time.Sleep(2 * time.Millisecond)
	a.Steps[0]++
}

// Report.ReplayTime sums, over the loads of one Run, the span from each
// launch to its replay target: a restarted run that later migrates reports
// its two short replays, not the kernel time between run start and the
// migration's replay.
func TestReplayTimeExcludesKernelTime(t *testing.T) {
	const iters = 40
	dir := t.TempDir()
	mods := []*Module{NewModule("paced").SafeData("Steps").SafePointAfter("iter").Ignorable("work")}
	factory := func() App { return &pacedApp{Steps: make([]float64, 1), Iters: iters} }
	cfg := Config{
		Mode: Sequential, AppName: "paced", Modules: mods,
		CheckpointDir: dir, CheckpointEvery: 5, FailAtSafePoint: 12,
	}
	eng, err := New(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); !errors.Is(err, ErrInjectedFailure) {
		t.Fatalf("first run: %v, want injected failure", err)
	}

	var relaunch time.Time
	cfg.FailAtSafePoint = 0
	cfg.Policy = AdaptAt(30, AdaptTarget{Mode: Shared, Threads: 2})
	cfg.OnAdapt = func(uint64, Mode, int, int) { relaunch = time.Now() }
	eng, err = New(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("restarted run: %v", err)
	}
	end := time.Now()
	rep := eng.Report()
	if !rep.Restarted || rep.Migrations != 1 {
		t.Fatalf("want a restarted run with one migration, got %+v", rep)
	}
	if rep.ReplayTime <= 0 || rep.ReplayTime >= end.Sub(relaunch) {
		t.Fatalf("ReplayTime = %v, want positive and below the %v from the migration relaunch to the end of the run",
			rep.ReplayTime, end.Sub(relaunch))
	}
}
