package ckpt

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ppar/internal/serial"
)

// stores returns one instance of every Store implementation, keyed by name,
// so the shared conformance tests below cover all of them.
func stores(t *testing.T) map[string]Store {
	t.Helper()
	fsStore, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dedupFS, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{
		"fs":         fsStore,
		"mem":        NewMem(),
		"gzip-mem":   NewGzip(NewMem()),
		"gzip-fs":    newGzipFS(t),
		"dedup-mem":  NewDedup(NewMem()),
		"dedup-fs":   NewDedup(dedupFS),
		"dedup-gzip": NewDedup(NewGzip(NewMem())),
	}
}

func newGzipFS(t *testing.T) Store {
	t.Helper()
	fsStore, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return NewGzip(fsStore)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			snap := serial.NewSnapshot("app", "seq", 50)
			snap.Fields["x"] = serial.Float64s([]float64{1, 2, 3})
			if err := s.Save(snap); err != nil {
				t.Fatal(err)
			}
			got, found, err := s.Load("app")
			if err != nil || !found {
				t.Fatalf("load: found=%v err=%v", found, err)
			}
			if got.SafePoints != 50 || got.Fields["x"].Fs[2] != 3 {
				t.Fatalf("bad snapshot: %+v", got)
			}
			if got.Mode != "seq" {
				t.Fatalf("mode %q survived round-trip as %q", "seq", got.Mode)
			}
		})
	}
}

func TestLoadMissing(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			if _, found, err := s.Load("nothing"); err != nil || found {
				t.Fatalf("found=%v err=%v for a snapshot that was never saved", found, err)
			}
			if _, found, err := s.LoadShardDelta("nothing", 3, 1); err != nil || found {
				t.Fatalf("shard: found=%v err=%v for a shard link that was never saved", found, err)
			}
		})
	}
}

func TestShards(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			for r := 0; r < 3; r++ {
				if err := s.SaveShardDelta(anchorLink("app", r, 10, 1, []float64{float64(r)}), r); err != nil {
					t.Fatal(err)
				}
			}
			for r := 0; r < 3; r++ {
				got, found, err := s.LoadShardDelta("app", r, 1)
				if err != nil || !found {
					t.Fatalf("shard %d: found=%v err=%v", r, found, err)
				}
				if got.Full["x"].Fs[0] != float64(r) {
					t.Errorf("shard %d holds %v", r, got.Full["x"].Fs)
				}
			}
			// Canonical and shard namespaces are separate.
			if _, found, _ := s.Load("app"); found {
				t.Error("canonical snapshot should not exist")
			}
		})
	}
}

func TestOverwriteKeepsLatest(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			for i := uint64(1); i <= 3; i++ {
				snap := serial.NewSnapshot("app", "seq", i)
				if err := s.Save(snap); err != nil {
					t.Fatal(err)
				}
			}
			got, _, err := s.Load("app")
			if err != nil {
				t.Fatal(err)
			}
			if got.SafePoints != 3 {
				t.Fatalf("latest snapshot has %d safe points, want 3", got.SafePoints)
			}
		})
	}
}

func TestClear(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			snap := serial.NewSnapshot("app", "seq", 1)
			if err := s.Save(snap); err != nil {
				t.Fatal(err)
			}
			if err := s.SaveShardDelta(anchorLink("app", 0, 1, 1, []float64{1}), 0); err != nil {
				t.Fatal(err)
			}
			other := serial.NewSnapshot("other", "seq", 2)
			if err := s.Save(other); err != nil {
				t.Fatal(err)
			}
			if err := s.Clear("app"); err != nil {
				t.Fatal(err)
			}
			if _, found, _ := s.Load("app"); found {
				t.Error("canonical snapshot survived Clear")
			}
			if _, found, _ := s.LoadShardDelta("app", 0, 1); found {
				t.Error("shard link survived Clear")
			}
			if _, found, _ := s.Load("other"); !found {
				t.Error("Clear removed another application's snapshot")
			}
		})
	}
}

func TestLedgerLifecycle(t *testing.T) {
	dir := t.TempDir()
	fresh := map[string]func() Store{
		"fs": func() Store {
			s, err := NewFS(dir)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
	// Mem and Gzip keep ledger state inside the instance, so "the next run"
	// shares the same store value.
	mem := NewMem()
	fresh["mem"] = func() Store { return mem }
	gz := NewGzip(NewMem())
	fresh["gzip"] = func() Store { return gz }

	for name, mk := range fresh {
		t.Run(name, func(t *testing.T) {
			s := mk()
			if crashed, _ := s.Crashed("app"); crashed {
				t.Fatal("fresh ledger reports crash")
			}
			if err := s.LedgerStart("app"); err != nil {
				t.Fatal(err)
			}
			// Simulate a crash: the next run's view sees the marker.
			s2 := mk()
			if crashed, _ := s2.Crashed("app"); !crashed {
				t.Fatal("crash not detected")
			}
			if err := s2.LedgerFinish("app"); err != nil {
				t.Fatal(err)
			}
			if crashed, _ := s2.Crashed("app"); crashed {
				t.Fatal("crash reported after clean finish")
			}
			// Finish is idempotent.
			if err := s2.LedgerFinish("app"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCorruptFileSurfacesError(t *testing.T) {
	s, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snap := serial.NewSnapshot("app", "seq", 1)
	if err := s.Save(snap); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir, "app.ckpt")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, found, err := s.Load("app"); err == nil || !found {
		t.Fatalf("corrupt checkpoint: found=%v err=%v, want found=true with error", found, err)
	}
}

func TestMemLoadDoesNotAliasSaver(t *testing.T) {
	s := NewMem()
	data := []float64{1, 2, 3}
	snap := serial.NewSnapshot("app", "seq", 1)
	snap.Fields["x"] = serial.Float64s(data)
	if err := s.Save(snap); err != nil {
		t.Fatal(err)
	}
	data[0] = 99 // mutate after save; the store must hold the old value
	got, _, err := s.Load("app")
	if err != nil {
		t.Fatal(err)
	}
	if got.Fields["x"].Fs[0] != 1 {
		t.Fatalf("stored snapshot aliased the saver's slice: %v", got.Fields["x"].Fs)
	}
}

func TestGzipActuallyCompresses(t *testing.T) {
	inner := NewMem()
	gz := NewGzip(inner)
	snap := serial.NewSnapshot("app", "smp", 7)
	// Highly compressible payload.
	big := make([]float64, 1<<14)
	snap.Fields["G"] = serial.Float64s(big)
	if err := gz.Save(snap); err != nil {
		t.Fatal(err)
	}
	env, found, err := inner.Load("app")
	if err != nil || !found {
		t.Fatalf("envelope: found=%v err=%v", found, err)
	}
	if env.Mode != gzipMode {
		t.Fatalf("envelope mode %q, want %q", env.Mode, gzipMode)
	}
	var rawLen int
	{
		var buf bytes.Buffer
		if err := snap.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		rawLen = buf.Len()
	}
	if got := env.DataBytes(); got >= rawLen/10 {
		t.Fatalf("compressed payload %d bytes, raw %d — no real compression", got, rawLen)
	}
	// And the round trip restores the original.
	back, found, err := gz.Load("app")
	if err != nil || !found {
		t.Fatalf("load: found=%v err=%v", found, err)
	}
	if back.Mode != "smp" || back.SafePoints != 7 || len(back.Fields["G"].Fs) != 1<<14 {
		t.Fatalf("bad round trip: %+v", back)
	}
}

func TestGzipPassesThroughUncompressed(t *testing.T) {
	inner := NewMem()
	plain := serial.NewSnapshot("app", "seq", 3)
	plain.Fields["x"] = serial.Int64(42)
	if err := inner.Save(plain); err != nil {
		t.Fatal(err)
	}
	// Upgrading a store to compression must not invalidate old snapshots.
	gz := NewGzip(inner)
	got, found, err := gz.Load("app")
	if err != nil || !found {
		t.Fatalf("load: found=%v err=%v", found, err)
	}
	if got.Fields["x"].I != 42 {
		t.Fatalf("pass-through snapshot mangled: %+v", got)
	}
}

func TestPolicyEvery(t *testing.T) {
	p := &Policy{Every: 10}
	var due []uint64
	for sp := uint64(1); sp <= 35; sp++ {
		if p.Due(sp) {
			due = append(due, sp)
		}
	}
	want := []uint64{10, 20, 30}
	if len(due) != len(want) {
		t.Fatalf("due at %v, want %v", due, want)
	}
	for i := range want {
		if due[i] != want[i] {
			t.Fatalf("due at %v, want %v", due, want)
		}
	}
	if p.Taken() != 3 {
		t.Errorf("taken = %d", p.Taken())
	}
}

func TestPolicyMaxCheckpoints(t *testing.T) {
	p := &Policy{Every: 5, MaxCheckpoints: 1}
	n := 0
	for sp := uint64(1); sp <= 100; sp++ {
		if p.Due(sp) {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d checkpoints taken, want 1", n)
	}
	p.Reset()
	if !p.Due(5) {
		t.Fatal("after Reset the policy should fire again")
	}
}

func TestPolicyDisabled(t *testing.T) {
	var p *Policy
	if p.Due(10) {
		t.Fatal("nil policy fired")
	}
	p2 := &Policy{}
	if p2.Due(10) {
		t.Fatal("zero policy fired")
	}
}

func TestReplayStateMachine(t *testing.T) {
	r := NewReplay(3)
	if !r.Active() {
		t.Fatal("replay should start active")
	}
	if r.Step() {
		t.Fatal("done after 1 step")
	}
	if r.Step() {
		t.Fatal("done after 2 steps")
	}
	if !r.Step() {
		t.Fatal("not done after 3 steps")
	}
	if r.Active() {
		t.Fatal("still active after completion")
	}
	if r.Step() {
		t.Fatal("Step after completion reported done again")
	}
}

func TestReplayInactive(t *testing.T) {
	r := NewReplay(0)
	if r.Active() {
		t.Fatal("zero-target replay is active")
	}
	var nilReplay *Replay
	if nilReplay.Active() {
		t.Fatal("nil replay is active")
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	if c.Inc() != 1 || c.Inc() != 2 {
		t.Fatal("Inc sequence wrong")
	}
	c.Set(100)
	if c.Load() != 100 {
		t.Fatal("Set/Load wrong")
	}
}

// Clearing one application must not touch another whose name shares the
// prefix: the old glob implementation of FS.Clear turned Clear("sor") into
// rm sor*.ckpt, wiping "sor-large" too.
func TestClearIsolatesPrefixSharingApps(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			for _, app := range []string{"sor", "sor-large", "sor.r2x"} {
				snap := serial.NewSnapshot(app, "seq", 1)
				if err := s.Save(snap); err != nil {
					t.Fatal(err)
				}
				if err := s.SaveShardDelta(anchorLink(app, 1, 1, 1, []float64{1}), 1); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Clear("sor"); err != nil {
				t.Fatal(err)
			}
			if _, found, _ := s.Load("sor"); found {
				t.Error(`canonical "sor" snapshot survived Clear`)
			}
			if _, found, _ := s.LoadShardDelta("sor", 1, 1); found {
				t.Error(`"sor" shard link survived Clear`)
			}
			for _, app := range []string{"sor-large", "sor.r2x"} {
				if _, found, _ := s.Load(app); !found {
					t.Errorf("Clear(%q) deleted %q's canonical snapshot", "sor", app)
				}
				if _, found, _ := s.LoadShardDelta(app, 1, 1); !found {
					t.Errorf("Clear(%q) deleted %q's shard link", "sor", app)
				}
			}
		})
	}
}

// A corrupt compressed snapshot exists — Load must say so (found=true) while
// reporting the error, so callers can distinguish "no restart point" from
// "restart point damaged".
func TestGzipCorruptEnvelopeReportsFound(t *testing.T) {
	inner := NewMem()
	env := serial.NewSnapshot("app", gzipMode, 4)
	env.Fields[gzipField] = serial.Bytes([]byte("this is not gzip data"))
	if err := inner.Save(env); err != nil {
		t.Fatal(err)
	}
	link := serial.NewDelta("app", gzipMode, 4, 4)
	link.Seq = 1
	link.Full[gzipField] = env.Fields[gzipField]
	if err := inner.SaveShardDelta(link, 2); err != nil {
		t.Fatal(err)
	}
	gz := NewGzip(inner)
	if _, found, err := gz.Load("app"); !found || err == nil {
		t.Fatalf("Load: found=%v err=%v, want found=true with error", found, err)
	}
	if _, found, err := gz.LoadShardDelta("app", 2, 1); !found || err == nil {
		t.Fatalf("LoadShardDelta: found=%v err=%v, want found=true with error", found, err)
	}
}
