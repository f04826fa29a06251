package ckpt

import (
	"strings"
	"testing"

	"ppar/internal/partition"
	"ppar/internal/serial"
)

// shardStores builds one of each Store flavour for chain tests.
func shardStores(t *testing.T) map[string]Store {
	fs, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{
		"fs":    fs,
		"mem":   NewMem(),
		"gzip":  NewGzip(NewMem()),
		"fault": NewFault(),
	}
}

// anchorLink builds a self-contained anchor link at the given safe point.
func anchorLink(app string, rank int, sp, seq uint64, data []float64) *serial.Delta {
	snap := serial.NewSnapshot(app, "shard", sp)
	snap.Fields["x"] = serial.Float64s(data)
	snap.Fields["it"] = serial.Int64(int64(sp))
	d := serial.AnchorDelta(snap)
	d.Seq = seq
	return d
}

// deltaLink builds a plain link replacing one field.
func deltaLink(app string, sp, baseSP, seq uint64, it int64) *serial.Delta {
	d := serial.NewDelta(app, "shard", sp, baseSP)
	d.Seq = seq
	d.Full["it"] = serial.Int64(it)
	return d
}

func TestShardChainStoreOps(t *testing.T) {
	for name, s := range shardStores(t) {
		t.Run(name, func(t *testing.T) {
			const app = "chain"
			// Two ranks, two links each; a second app shares the prefix to
			// pin the exact-name matching of Clear.
			for rank := 0; rank < 2; rank++ {
				if err := s.SaveShardDelta(anchorLink(app, rank, 4, 1, []float64{1, 2}), rank); err != nil {
					t.Fatal(err)
				}
				if err := s.SaveShardDelta(deltaLink(app, 6, 4, 2, 6), rank); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.SaveShardDelta(anchorLink(app+"-x", 0, 4, 1, []float64{9}), 0); err != nil {
				t.Fatal(err)
			}
			if err := s.SaveManifest(&serial.Manifest{
				App: app, Mode: "dist", SafePoints: 6,
				Shards: []serial.ManifestShard{{Anchor: 1, Seq: 2}, {Anchor: 1, Seq: 2}},
			}); err != nil {
				t.Fatal(err)
			}

			d, found, err := s.LoadShardDelta(app, 1, 2)
			if err != nil || !found {
				t.Fatalf("load link: found=%v err=%v", found, err)
			}
			if d.Seq != 2 || d.SafePoints != 6 || d.Full["it"].I != 6 {
				t.Fatalf("link round trip: %+v", d)
			}
			m, found, err := s.LoadManifest(app)
			if err != nil || !found {
				t.Fatalf("load manifest: found=%v err=%v", found, err)
			}
			if m.SafePoints != 6 || m.World() != 2 {
				t.Fatalf("manifest round trip: %+v", m)
			}

			// A zero-seq link must be rejected before it can damage a chain.
			if err := s.SaveShardDelta(deltaLink(app, 8, 4, 0, 8), 0); err == nil {
				t.Fatal("zero-seq shard link accepted")
			}

			// GC below the anchor keeps the committed window intact.
			if err := s.ClearShardDeltas(app, 0, 2); err != nil {
				t.Fatal(err)
			}
			if _, found, _ := s.LoadShardDelta(app, 0, 1); found {
				t.Fatal("GC left the link below the bound")
			}
			if _, found, _ := s.LoadShardDelta(app, 0, 2); !found {
				t.Fatal("GC removed a committed link")
			}
			if _, found, _ := s.LoadShardDelta(app, 1, 1); !found {
				t.Fatal("GC of rank 0 touched rank 1's chain")
			}

			// Clear removes chain links and the manifest, but only for the
			// exact app.
			if err := s.Clear(app); err != nil {
				t.Fatal(err)
			}
			if _, found, _ := s.LoadManifest(app); found {
				t.Fatal("Clear left the manifest")
			}
			if _, found, _ := s.LoadShardDelta(app, 1, 2); found {
				t.Fatal("Clear left a chain link")
			}
			if _, found, _ := s.LoadShardDelta(app+"-x", 0, 1); !found {
				t.Fatal("Clear wiped the prefix-sharing app's chain")
			}
		})
	}
}

func TestLoadShardResumeMaterialisesCommittedWindow(t *testing.T) {
	s := NewMem()
	const app = "resume"
	// Rank chains: anchor at sp 2 (seq 1), deltas at sp 4 and 6 (seq 2, 3),
	// plus an UNCOMMITTED link at sp 8 the manifest must never read.
	for rank := 0; rank < 2; rank++ {
		base := []float64{float64(rank), float64(rank + 1)}
		if err := s.SaveShardDelta(anchorLink(app, rank, 2, 1, base), rank); err != nil {
			t.Fatal(err)
		}
		for seq, sp := range map[uint64]uint64{2: 4, 3: 6, 4: 8} {
			if err := s.SaveShardDelta(deltaLink(app, sp, 2, seq, int64(sp)), rank); err != nil {
				t.Fatal(err)
			}
		}
	}
	man := &serial.Manifest{App: app, Mode: "dist", SafePoints: 6,
		Shards: make([]serial.ManifestShard, 2)}
	for r := range man.Shards {
		d, _, err := s.LoadShardDelta(app, r, 3)
		if err != nil {
			t.Fatal(err)
		}
		crc, size, err := d.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		man.Shards[r] = serial.ManifestShard{Anchor: 1, Seq: 3, CRC: crc, Size: size}
	}
	if err := s.SaveManifest(man); err != nil {
		t.Fatal(err)
	}

	shards, m, found, err := LoadShardResume(s, app)
	if err != nil || !found {
		t.Fatalf("resume: found=%v err=%v", found, err)
	}
	if m.SafePoints != 6 || len(shards) != 2 {
		t.Fatalf("resume shape: %+v, %d shards", m, len(shards))
	}
	for r, snap := range shards {
		if snap.SafePoints != 6 || snap.Fields["it"].I != 6 {
			t.Fatalf("shard %d materialised wrong state: %+v", r, snap)
		}
		if got := snap.Fields["x"].Fs; got[0] != float64(r) {
			t.Fatalf("shard %d lost its anchor data: %v", r, got)
		}
	}

	// A link overwritten AFTER the commit (the crashed-later-save signature
	// when sequence numbers were mis-seeded) must fail the fingerprint gate.
	if err := s.SaveShardDelta(deltaLink(app, 99, 2, 3, 99), 1); err != nil {
		t.Fatal(err)
	}
	if _, _, found, err := LoadShardResume(s, app); !found || err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("overwritten committed link accepted: found=%v err=%v", found, err)
	}

	// A rebase moves the window: a new anchor at seq 4 committed at sp 8
	// makes links 1-3 stale, and GC below the new anchor must not disturb
	// the committed state.
	for rank := 0; rank < 2; rank++ {
		if err := s.SaveShardDelta(anchorLink(app, rank, 8, 4, []float64{float64(rank), 8}), rank); err != nil {
			t.Fatal(err)
		}
	}
	man2 := &serial.Manifest{App: app, Mode: "dist", SafePoints: 8,
		Shards: make([]serial.ManifestShard, 2)}
	for r := range man2.Shards {
		d, _, err := s.LoadShardDelta(app, r, 4)
		if err != nil {
			t.Fatal(err)
		}
		crc, size, err := d.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		man2.Shards[r] = serial.ManifestShard{Anchor: 4, Seq: 4, CRC: crc, Size: size}
	}
	if err := s.SaveManifest(man2); err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 2; rank++ {
		if err := s.ClearShardDeltas(app, rank, 4); err != nil {
			t.Fatal(err)
		}
	}
	if shards, m, _, err := LoadShardResume(s, app); err != nil || m.SafePoints != 8 || shards[0].SafePoints != 8 {
		t.Fatalf("resume after rebase+GC: %v (manifest %+v)", err, m)
	}

	// A hole INSIDE the committed window is an error, never a silent older
	// state.
	if err := s.ClearShardDeltas(app, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, found, err := LoadShardResume(s, app); !found || err == nil {
		t.Fatalf("missing committed link accepted: found=%v err=%v", found, err)
	}

	// No manifest at all: no sharded restart point, cleanly.
	if err := s.Clear(app); err != nil {
		t.Fatal(err)
	}
	if _, _, found, err := LoadShardResume(s, app); found || err != nil {
		t.Fatalf("want found=false after Clear, got found=%v err=%v", found, err)
	}
}

func TestReshardReassemblesEveryLayout(t *testing.T) {
	const world = 3
	full := make([]float64, 11)
	for i := range full {
		full[i] = float64(10 + i)
	}
	matrix := make([][]float64, 7)
	for i := range matrix {
		matrix[i] = []float64{float64(i), float64(i) * 2}
	}
	ints := []float64{1, 2, 3, 4, 5, 6, 7, 8}

	layouts := map[string]ShardLayout{
		"vec":  {Elem: ElemFloats, Kind: partition.Block, Chunk: 1, N: len(full)},
		"cyc":  {Elem: ElemFloats, Kind: partition.Cyclic, Chunk: 1, N: len(full)},
		"bc":   {Elem: ElemInts, Kind: partition.BlockCyclic, Chunk: 2, N: len(ints)},
		"grid": {Elem: ElemMatrix, Kind: partition.Block, Chunk: 1, N: len(matrix), Cols: 2},
	}
	shards := make([]*serial.Snapshot, world)
	for r := range shards {
		snap := serial.NewSnapshot("rs", "shard", 5)
		snap.Fields["scalar"] = serial.Float64(3.5)
		for name, l := range layouts {
			lay := l.layout(world)
			var blk []float64
			lay.Indices(r, func(i int) {
				switch name {
				case "grid":
					blk = append(blk, matrix[i]...)
				case "bc":
					blk = append(blk, ints[i])
				default:
					blk = append(blk, full[i])
				}
			})
			snap.Fields[name] = serial.Float64s(blk)
			snap.Fields[LayoutField(name)] = LayoutValue(l)
		}
		shards[r] = snap
	}

	out, err := Reshard(shards, "rs", 5)
	if err != nil {
		t.Fatal(err)
	}
	if out.SafePoints != 5 || out.Mode != "canonical" {
		t.Fatalf("reshard header: %+v", out)
	}
	if out.Fields["scalar"].F != 3.5 {
		t.Fatal("replicated scalar lost")
	}
	for _, name := range []string{"vec", "cyc"} {
		got := out.Fields[name].Fs
		for i, want := range full {
			if got[i] != want {
				t.Fatalf("%s[%d] = %v, want %v", name, i, got[i], want)
			}
		}
	}
	for i, want := range ints {
		if out.Fields["bc"].Is[i] != int64(want) {
			t.Fatalf("bc[%d] = %v, want %v", i, out.Fields["bc"].Is[i], want)
		}
	}
	grid := out.Fields["grid"]
	if grid.Rows != len(matrix) || grid.Cols != 2 {
		t.Fatalf("grid shape %dx%d", grid.Rows, grid.Cols)
	}
	for i, row := range matrix {
		for j, want := range row {
			if grid.F2[i][j] != want {
				t.Fatalf("grid[%d][%d] = %v, want %v", i, j, grid.F2[i][j], want)
			}
		}
	}

	// A block whose size disagrees with the layout must fail loudly.
	shards[1].Fields["vec"] = serial.Float64s([]float64{1})
	if _, err := Reshard(shards, "rs", 5); err == nil {
		t.Fatal("short packed block accepted")
	}
}
