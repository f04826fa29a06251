package ckpt

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"ppar/internal/serial"
)

// goldenDir holds a store directory written by the FS of commit ff46edc —
// the last one where FS carried its own Store method bodies — running
// writeGolden below. It pins the on-disk format: file names and container
// bytes must not move when the code above the files does.
const goldenDir = "testdata/parent-fs"

const goldenApp = "gold"

// golden is what the artifacts writeGolden stores must load back as.
type golden struct {
	canon  *serial.Snapshot   // base with d1, d2 applied
	shards []*serial.Snapshot // per rank: anchor with link 2 applied
	chunks map[string][]byte
}

// writeGolden stores one of every kind of artifact through s: a canonical
// snapshot with a two-link delta chain, a two-rank shard chain with its
// manifest, two chunks (one referenced twice) and an open run marker.
func writeGolden(t *testing.T, s Store) golden {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var g golden

	base := serial.NewSnapshot(goldenApp, "seq", 10)
	base.Fields["x"] = serial.Float64s([]float64{1, 2, 3, 4, 5, 6})
	base.Fields["m"] = serial.Float64Matrix([][]float64{{1, 2}, {3, 4}})
	base.Fields["it"] = serial.Int64(10)
	must(s.Save(base))
	d1 := serial.NewDelta(goldenApp, "seq", 12, 10)
	d1.Seq = 1
	d1.Full["it"] = serial.Int64(12)
	must(s.SaveDelta(d1))
	d2 := serial.NewDelta(goldenApp, "seq", 14, 10)
	d2.Seq = 2
	d2.Full["it"] = serial.Int64(14)
	d2.Slices["x"] = serial.SliceDelta{Len: 6, Chunks: []serial.SliceChunk{{Off: 2, Data: []float64{30, 40}}}}
	must(s.SaveDelta(d2))
	g.canon = base.Clone()
	must(d1.Apply(g.canon))
	must(d2.Apply(g.canon))

	man := &serial.Manifest{App: goldenApp, Mode: "dist", SafePoints: 12}
	for rank := 0; rank < 2; rank++ {
		anchor := anchorLink(goldenApp, rank, 10, 1, []float64{float64(rank), float64(rank + 1)})
		link := deltaLink(goldenApp, 12, 10, 2, 12)
		must(s.SaveShardDelta(anchor, rank))
		must(s.SaveShardDelta(link, rank))
		crc, size, err := link.Fingerprint()
		must(err)
		man.Shards = append(man.Shards, serial.ManifestShard{Anchor: 1, Seq: 2, CRC: crc, Size: size})
		shard := serial.NewSnapshot(goldenApp, "shard", 0)
		must(anchor.Apply(shard))
		must(link.Apply(shard))
		g.shards = append(g.shards, shard)
	}
	must(s.SaveManifest(man))

	g.chunks = map[string][]byte{}
	for _, payload := range [][]byte{[]byte("chunk one"), []byte("chunk one"), []byte("chunk two, longer")} {
		key := serial.ChunkKey(payload)
		_, err := s.PutChunk(key, payload)
		must(err)
		g.chunks[key] = payload
	}

	must(s.LedgerStart(goldenApp))
	return g
}

func containerBytes(t *testing.T, snap *serial.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}

// The directory the parent commit's FS wrote restarts to the same snapshots
// under this commit's FS, and this commit's FS writes the same directory.
func TestParentFSDirectory(t *testing.T) {
	fresh, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := writeGolden(t, fresh)

	// Reads only: nothing below may write into testdata.
	old, err := NewFS(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	canon, found, err := LoadResume(old, goldenApp)
	if err != nil || !found {
		t.Fatalf("LoadResume: found=%v err=%v", found, err)
	}
	if !bytes.Equal(containerBytes(t, canon), containerBytes(t, want.canon)) {
		t.Errorf("canonical chain materialises as %+v, want %+v", canon, want.canon)
	}
	shards, man, found, err := LoadShardResume(old, goldenApp)
	if err != nil || !found {
		t.Fatalf("LoadShardResume: found=%v err=%v", found, err)
	}
	if man.SafePoints != 12 || len(shards) != len(want.shards) {
		t.Fatalf("manifest commits safe point %d over %d shards", man.SafePoints, len(shards))
	}
	for r := range shards {
		if !bytes.Equal(containerBytes(t, shards[r]), containerBytes(t, want.shards[r])) {
			t.Errorf("shard %d materialises as %+v, want %+v", r, shards[r], want.shards[r])
		}
	}
	if crashed, err := old.Crashed(goldenApp); err != nil || !crashed {
		t.Errorf("Crashed: %v err=%v, want the open run marker seen", crashed, err)
	}
	for key, payload := range want.chunks {
		got, found, err := old.GetChunk(key)
		if err != nil || !found || !bytes.Equal(got, payload) {
			t.Errorf("chunk %s: %q found=%v err=%v", key, got, found, err)
		}
	}

	oldFiles, newFiles := dirFiles(t, goldenDir), dirFiles(t, fresh.Dir)
	var names []string
	for name := range oldFiles {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !bytes.Equal(oldFiles[name], newFiles[name]) {
			t.Errorf("%s: parent wrote %d bytes, this commit writes %d different ones", name, len(oldFiles[name]), len(newFiles[name]))
		}
		delete(newFiles, name)
	}
	for name := range newFiles {
		t.Errorf("%s: written by this commit, absent from the parent's directory", name)
	}
}
