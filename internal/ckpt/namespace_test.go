package ckpt

import (
	"testing"

	"ppar/internal/serial"
)

// nsStores returns every backend wrapped by two adversarial namespaces —
// "t1" and "t10", where one prefix is a string prefix of the other — plus
// the raw backend, so the isolation tests can check all three views of one
// store.
func nsStores(t *testing.T) map[string]struct{ inner, t1, t10 Store } {
	t.Helper()
	out := map[string]struct{ inner, t1, t10 Store }{}
	for name, inner := range stores(t) {
		t1, err := NewNamespaced("t1", inner)
		if err != nil {
			t.Fatal(err)
		}
		t10, err := NewNamespaced("t10", inner)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = struct{ inner, t1, t10 Store }{inner, t1, t10}
	}
	return out
}

func TestNamespacedRejectsBadPrefixes(t *testing.T) {
	if _, err := NewNamespaced("", NewMem()); err == nil {
		t.Error("empty prefix accepted")
	}
	if _, err := NewNamespaced("a~b", NewMem()); err == nil {
		t.Error("prefix containing the separator accepted")
	}
	if _, err := NewNamespaced("ok", nil); err == nil {
		t.Error("nil inner store accepted")
	}
}

// The canonical round trip through every backend: a snapshot saved through
// a namespace reads back with its original App name, and is invisible both
// to the raw store under the plain name and to a sibling namespace.
func TestNamespacedRoundTrip(t *testing.T) {
	for name, ns := range nsStores(t) {
		t.Run(name, func(t *testing.T) {
			snap := serial.NewSnapshot("app", "seq", 7)
			snap.Fields["x"] = serial.Float64s([]float64{1, 2, 3})
			if err := ns.t1.Save(snap); err != nil {
				t.Fatal(err)
			}
			if snap.App != "app" {
				t.Fatalf("Save mutated the caller's snapshot App to %q", snap.App)
			}
			got, found, err := ns.t1.Load("app")
			if err != nil || !found {
				t.Fatalf("load: found=%v err=%v", found, err)
			}
			if got.App != "app" || got.SafePoints != 7 || got.Fields["x"].Fs[2] != 3 {
				t.Fatalf("bad snapshot through namespace: %+v", got)
			}
			if _, found, _ := ns.inner.Load("app"); found {
				t.Error("namespaced snapshot visible under the raw name")
			}
			if _, found, _ := ns.t10.Load("app"); found {
				t.Error("namespaced snapshot visible in a sibling namespace")
			}
			if inner, found, _ := ns.inner.Load("t1~app"); !found || inner.App != "t1~app" {
				t.Errorf("inner store should hold the prefixed key (found=%v app=%q)", found, inner.App)
			}
		})
	}
}

func TestNamespacedDeltaChain(t *testing.T) {
	for name, ns := range nsStores(t) {
		t.Run(name, func(t *testing.T) {
			base := serial.NewSnapshot("app", "seq", 10)
			base.Fields["x"] = serial.Float64s([]float64{1, 2, 3})
			if err := ns.t1.Save(base); err != nil {
				t.Fatal(err)
			}
			d := serial.NewDelta("app", "seq", 12, 10)
			d.Seq = 1
			d.Full["x"] = serial.Float64s([]float64{4, 5, 6})
			if err := ns.t1.SaveDelta(d); err != nil {
				t.Fatal(err)
			}
			if d.App != "app" {
				t.Fatalf("SaveDelta mutated the caller's delta App to %q", d.App)
			}
			gotBase, deltas, found, err := ns.t1.LoadChain("app")
			if err != nil || !found {
				t.Fatalf("chain: found=%v err=%v", found, err)
			}
			if gotBase.App != "app" || len(deltas) != 1 || deltas[0].App != "app" {
				t.Fatalf("chain came back renamed: base=%q deltas=%d", gotBase.App, len(deltas))
			}
			if deltas[0].SafePoints != 12 {
				t.Fatalf("delta safe points %d, want 12", deltas[0].SafePoints)
			}
			// Sibling namespaces see no chain; ClearDeltas in one namespace
			// leaves the other's chain alone.
			if _, _, found, _ := ns.t10.LoadChain("app"); found {
				t.Error("chain visible in a sibling namespace")
			}
			if err := ns.t10.ClearDeltas("app"); err != nil {
				t.Fatal(err)
			}
			if _, deltas, _, _ := ns.t1.LoadChain("app"); len(deltas) != 1 {
				t.Error("sibling ClearDeltas removed this namespace's chain")
			}
		})
	}
}

func TestNamespacedShardsAndManifest(t *testing.T) {
	for name, ns := range nsStores(t) {
		t.Run(name, func(t *testing.T) {
			for r := 0; r < 2; r++ {
				d := serial.NewDelta("app", "dist", 4, 0)
				d.Seq = 1
				d.Full["r"] = serial.Int64(int64(r))
				if err := ns.t1.SaveShardDelta(d, r); err != nil {
					t.Fatal(err)
				}
			}
			m := &serial.Manifest{App: "app", Mode: "dist", SafePoints: 4,
				Shards: []serial.ManifestShard{{Anchor: 1, Seq: 1}, {Anchor: 1, Seq: 1}}}
			if err := ns.t1.SaveManifest(m); err != nil {
				t.Fatal(err)
			}
			if m.App != "app" {
				t.Fatalf("SaveManifest mutated the caller's manifest App to %q", m.App)
			}
			got, found, err := ns.t1.LoadManifest("app")
			if err != nil || !found {
				t.Fatalf("manifest: found=%v err=%v", found, err)
			}
			if got.App != "app" || got.World() != 2 {
				t.Fatalf("manifest came back as app=%q world=%d", got.App, got.World())
			}
			if d, found, _ := ns.t1.LoadShardDelta("app", 0, 1); !found || d.App != "app" {
				t.Fatalf("shard delta: found=%v", found)
			}
			if _, found, _ := ns.t10.LoadManifest("app"); found {
				t.Error("manifest visible in a sibling namespace")
			}
			if err := ns.t10.ClearShardDeltas("app", 0, 0); err != nil {
				t.Fatal(err)
			}
			if _, found, _ := ns.t1.LoadShardDelta("app", 0, 1); !found {
				t.Error("sibling ClearShardDeltas removed this namespace's chain link")
			}
		})
	}
}

// The PR 2 exact-name Clear guarantee, lifted to namespaces: Clear through
// "t1" must not touch "t10" even though the prefixes share a prefix, and
// the raw backend's own artifacts survive too.
func TestNamespacedClearIsolation(t *testing.T) {
	for name, ns := range nsStores(t) {
		t.Run(name, func(t *testing.T) {
			for _, s := range []Store{ns.inner, ns.t1, ns.t10} {
				snap := serial.NewSnapshot("app", "seq", 3)
				if err := s.Save(snap); err != nil {
					t.Fatal(err)
				}
				if err := s.SaveShardDelta(anchorLink("app", 0, 3, 1, []float64{1}), 0); err != nil {
					t.Fatal(err)
				}
			}
			if err := ns.t1.Clear("app"); err != nil {
				t.Fatal(err)
			}
			if _, found, _ := ns.t1.Load("app"); found {
				t.Error("snapshot survived Clear in its own namespace")
			}
			if _, found, _ := ns.t1.LoadShardDelta("app", 0, 1); found {
				t.Error("shard link survived Clear in its own namespace")
			}
			if _, found, _ := ns.t10.LoadShardDelta("app", 0, 1); !found {
				t.Error("Clear(\"t1\") removed the \"t10\" namespace's shard link")
			}
			if _, found, _ := ns.t10.Load("app"); !found {
				t.Error("Clear(\"t1\") removed the \"t10\" namespace's snapshot")
			}
			if _, found, _ := ns.inner.Load("app"); !found {
				t.Error("Clear through a namespace removed the raw store's snapshot")
			}
		})
	}
}

// The crash ledger is per-namespace: a dirty run in one namespace must not
// make a sibling (or the raw store) replay.
func TestNamespacedLedgerIsolation(t *testing.T) {
	for name, ns := range nsStores(t) {
		t.Run(name, func(t *testing.T) {
			if err := ns.t1.LedgerStart("app"); err != nil {
				t.Fatal(err)
			}
			if crashed, _ := ns.t1.Crashed("app"); !crashed {
				t.Error("dirty ledger not visible in its own namespace")
			}
			if crashed, _ := ns.t10.Crashed("app"); crashed {
				t.Error("dirty ledger leaked into a sibling namespace")
			}
			if crashed, _ := ns.inner.Crashed("app"); crashed {
				t.Error("dirty ledger leaked into the raw store")
			}
			if err := ns.t1.LedgerFinish("app"); err != nil {
				t.Fatal(err)
			}
			if crashed, _ := ns.t1.Crashed("app"); crashed {
				t.Error("ledger still dirty after finish")
			}
		})
	}
}
