package ckpt

import (
	"strings"
	"testing"

	"ppar/internal/serial"
)

// bigState builds a snapshot whose float fields span several grid chunks,
// so the dedup wrapper actually chunks them. seed shifts every element, so
// different seeds never share chunk content.
func bigState(app string, sp uint64, seed float64) *serial.Snapshot {
	snap := serial.NewSnapshot(app, "seq", sp)
	fs := make([]float64, 3*serial.DeltaChunkElems+17)
	for i := range fs {
		fs[i] = seed + float64(i)
	}
	snap.Fields["Vec"] = serial.Float64s(fs)
	m := make([][]float64, 200)
	for i := range m {
		row := make([]float64, 100)
		for j := range row {
			row[j] = seed*1e6 + float64(i*100+j)
		}
		m[i] = row
	}
	snap.Fields["Mat"] = serial.Float64Matrix(m)
	snap.Fields["Count"] = serial.Int64(7)
	return snap
}

func assertBigState(t *testing.T, got *serial.Snapshot, sp uint64, seed float64) {
	t.Helper()
	if got.SafePoints != sp {
		t.Fatalf("safe points = %d, want %d", got.SafePoints, sp)
	}
	v := got.Fields["Vec"]
	if v.Tag != serial.TFloat64s || len(v.Fs) != 3*serial.DeltaChunkElems+17 {
		t.Fatalf("Vec came back with tag %d len %d", v.Tag, len(v.Fs))
	}
	for _, i := range []int{0, serial.DeltaChunkElems, len(v.Fs) - 1} {
		if v.Fs[i] != seed+float64(i) {
			t.Fatalf("Vec[%d] = %v, want %v", i, v.Fs[i], seed+float64(i))
		}
	}
	mv := got.Fields["Mat"]
	if mv.Tag != serial.TFloat64_2 || mv.Rows != 200 || mv.Cols != 100 {
		t.Fatalf("Mat came back as %dx%d (tag %d)", mv.Rows, mv.Cols, mv.Tag)
	}
	if mv.F2[199][99] != seed*1e6+float64(199*100+99) {
		t.Fatalf("Mat[199][99] = %v", mv.F2[199][99])
	}
	if got.Fields["Count"].I != 7 {
		t.Fatalf("Count = %d", got.Fields["Count"].I)
	}
}

// memChunkCount reports how many distinct chunks the backing Mem holds.
func memChunkCount(m *Mem) int {
	names, _ := m.b.List()
	n := 0
	for _, name := range names {
		if strings.HasSuffix(name, ".chunk") {
			n++
		}
	}
	return n
}

func TestDedupRoundTripAndStats(t *testing.T) {
	inner := NewMem()
	s := NewDedup(inner)
	if err := s.Save(bigState("app", 10, 1)); err != nil {
		t.Fatal(err)
	}
	got, found, err := s.Load("app")
	if err != nil || !found {
		t.Fatalf("load: found=%v err=%v", found, err)
	}
	assertBigState(t, got, 10, 1)
	first := s.Stats()
	if first.Chunks == 0 || first.DupChunks != 0 {
		t.Fatalf("first save stats: %+v", first)
	}
	if r := first.Ratio(); r != 1 {
		t.Fatalf("ratio after one unique save = %v, want 1", r)
	}

	// Saving the identical state again re-puts every chunk as a duplicate:
	// the base's reference replacement releases the old references only
	// after the new save landed, so the contents never leave the store.
	if err := s.Save(bigState("app", 20, 1)); err != nil {
		t.Fatal(err)
	}
	second := s.Stats()
	if second.DupChunks != first.Chunks {
		t.Fatalf("second save of identical state deduped %d of %d chunks", second.DupChunks, first.Chunks)
	}
	if r := second.Ratio(); r <= 1.9 {
		t.Fatalf("ratio after a fully duplicated save = %v, want ~2", r)
	}
	if n := memChunkCount(inner); int64(n) != first.Chunks {
		t.Fatalf("store holds %d chunks, want %d", n, first.Chunks)
	}
	got, _, err = s.Load("app")
	if err != nil {
		t.Fatal(err)
	}
	assertBigState(t, got, 20, 1)
}

func TestDedupDeltaChainRoundTrip(t *testing.T) {
	s := NewDedup(NewMem())
	base := bigState("app", 10, 3)
	h := serial.NewStateHash()
	h.Rehash(base)
	if err := s.Save(base); err != nil {
		t.Fatal(err)
	}

	// Touch one chunk of the slice and one row group of the matrix, then
	// drop a field: the delta carries chunked sections plus a removal, all
	// of which must survive the dedup envelope.
	next := base.Clone()
	next.SafePoints = 12
	next.Fields["Vec"].Fs[serial.DeltaChunkElems+5] = -1
	next.Fields["Mat"].F2[50][2] = -2
	delete(next.Fields, "Count")
	d := h.Diff(next, base.SafePoints, false)
	if len(d.Slices) == 0 || len(d.Matrices) == 0 || len(d.Removed) != 1 {
		t.Fatalf("diff shape: slices=%d matrices=%d removed=%v", len(d.Slices), len(d.Matrices), d.Removed)
	}
	d.Seq = 1
	if err := s.SaveDelta(d); err != nil {
		t.Fatal(err)
	}

	snap, found, err := LoadResume(s, "app")
	if err != nil || !found {
		t.Fatalf("resume: found=%v err=%v", found, err)
	}
	if snap.SafePoints != 12 {
		t.Fatalf("resume landed at %d, want 12", snap.SafePoints)
	}
	if got := snap.Fields["Vec"].Fs[serial.DeltaChunkElems+5]; got != -1 {
		t.Fatalf("Vec delta chunk not applied: %v", got)
	}
	if got := snap.Fields["Mat"].F2[50][2]; got != -2 {
		t.Fatalf("Mat delta chunk not applied: %v", got)
	}
	if _, ok := snap.Fields["Count"]; ok {
		t.Fatal("removed field resurrected through the dedup envelope")
	}
	// The delta's unchanged-chunk neighbours were never re-put; its changed
	// chunks are new content. Nothing should have deduped yet except the
	// matrix row group if untouched — assert only that stats moved.
	if s.Stats().Chunks == 0 {
		t.Fatal("no chunks accounted")
	}
}

// A chunk read that fails under the base is a loud found=true error; under a
// link it truncates the chain there. It never yields a half-rehydrated state,
// and nothing is lost once the backend reads again.
func TestDedupGetChunkFaultNeverHalfLoads(t *testing.T) {
	fault := NewFault()
	s := NewDedup(fault)
	base := bigState("app", 10, 3)
	h := serial.NewStateHash()
	h.Rehash(base)
	if err := s.Save(base); err != nil {
		t.Fatal(err)
	}
	next := base.Clone()
	next.SafePoints = 12
	next.Fields["Vec"].Fs[serial.DeltaChunkElems+5] = -1
	d := h.Diff(next, base.SafePoints, false)
	d.Seq = 1
	if err := s.SaveDelta(d); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.LoadChain("app"); err != nil {
		t.Fatal(err)
	}
	reads := fault.Ops(OpGetChunk)
	if reads < 2 {
		t.Fatalf("a full chain load read %d chunks", reads)
	}
	var loud, truncated int
	for n := 1; n <= reads; n++ {
		fault.Arm(OpGetChunk, n)
		snap, deltas, found, err := s.LoadChain("app")
		fault.Disarm()
		switch {
		case !found:
			t.Fatalf("read %d failed: the restart point vanished", n)
		case err != nil:
			loud++
		case len(deltas) == 0:
			truncated++
			assertBigState(t, snap, 10, 3)
		default:
			t.Fatalf("read %d failed, yet the whole chain loaded", n)
		}
	}
	if loud == 0 || truncated == 0 {
		t.Fatalf("sweep hit the base %d times and the link %d times", loud, truncated)
	}
	if snap, found, err := LoadResume(s, "app"); err != nil || !found || snap.SafePoints != 12 {
		t.Fatalf("resume after the sweep: found=%v err=%v", found, err)
	}
}

func TestDedupCrossTenantSharingAndGC(t *testing.T) {
	shared := NewMem()
	ns1, err := NewNamespaced("t1", shared)
	if err != nil {
		t.Fatal(err)
	}
	ns2, err := NewNamespaced("t2", shared)
	if err != nil {
		t.Fatal(err)
	}
	t1, t2 := NewDedup(ns1), NewDedup(ns2)

	// Two tenants checkpoint identical state through one shared backend:
	// the second tenant's chunks must all hit the first tenant's copies.
	if err := t1.Save(bigState("app", 10, 5)); err != nil {
		t.Fatal(err)
	}
	unique := memChunkCount(shared)
	if unique == 0 {
		t.Fatal("tenant 1 stored no chunks")
	}
	if err := t2.Save(bigState("app", 10, 5)); err != nil {
		t.Fatal(err)
	}
	if st := t2.Stats(); st.DupChunks != st.Chunks {
		t.Fatalf("tenant 2 stored %d new chunks of %d; want full sharing", st.Chunks-st.DupChunks, st.Chunks)
	}
	if n := memChunkCount(shared); n != unique {
		t.Fatalf("shared store grew to %d chunks after an identical tenant save, want %d", n, unique)
	}

	// One tenant clearing its checkpoints must never free chunks the other
	// still references.
	if err := t1.Clear("app"); err != nil {
		t.Fatal(err)
	}
	if _, found, err := t1.Load("app"); err != nil || found {
		t.Fatalf("tenant 1 checkpoint survived its Clear: found=%v err=%v", found, err)
	}
	if n := memChunkCount(shared); n != unique {
		t.Fatalf("tenant 1's Clear freed shared chunks: %d left, want %d", n, unique)
	}
	got, found, err := t2.Load("app")
	if err != nil || !found {
		t.Fatalf("tenant 2 load after tenant 1 clear: found=%v err=%v", found, err)
	}
	assertBigState(t, got, 10, 5)

	// The last reference going away reclaims the chunks.
	if err := t2.Clear("app"); err != nil {
		t.Fatal(err)
	}
	if n := memChunkCount(shared); n != 0 {
		t.Fatalf("%d chunks leaked after the last tenant cleared", n)
	}
}

func TestDedupCompactionReleasesChainChunks(t *testing.T) {
	inner := NewMem()
	s := NewDedup(inner)
	base := bigState("app", 10, 7)
	h := serial.NewStateHash()
	h.Rehash(base)
	if err := s.Save(base); err != nil {
		t.Fatal(err)
	}
	afterBase := memChunkCount(inner)

	next := base.Clone()
	next.SafePoints = 12
	for i := 0; i < serial.DeltaChunkElems; i++ {
		next.Fields["Vec"].Fs[i] = -float64(i)
	}
	d := h.Diff(next, base.SafePoints, false)
	d.Seq = 1
	if err := s.SaveDelta(d); err != nil {
		t.Fatal(err)
	}
	if n := memChunkCount(inner); n != afterBase+1 {
		t.Fatalf("delta added %d chunks, want 1", n-afterBase)
	}

	// Compaction order (new base, then ClearDeltas) releases exactly the
	// chain's chunks. The new base shares every chunk it can with the old
	// one, so after the old base's references are dropped the store holds
	// one unique set plus nothing from the cleared chain.
	if err := s.Save(next); err != nil {
		t.Fatal(err)
	}
	if err := s.ClearDeltas("app"); err != nil {
		t.Fatal(err)
	}
	if n := memChunkCount(inner); n != afterBase {
		t.Fatalf("store holds %d chunks after compaction, want %d", n, afterBase)
	}
	if err := s.Clear("app"); err != nil {
		t.Fatal(err)
	}
	if n := memChunkCount(inner); n != 0 {
		t.Fatalf("%d chunks leaked after Clear", n)
	}
}

func TestDedupShardChainGC(t *testing.T) {
	inner := NewMem()
	s := NewDedup(inner)
	mk := func(seq uint64, seed float64) *serial.Delta {
		d := serial.AnchorDelta(bigState("app", 10*seq, seed))
		d.Seq = seq
		return d
	}
	if err := s.SaveShardDelta(mk(1, 9), 0); err != nil {
		t.Fatal(err)
	}
	one := memChunkCount(inner)
	if err := s.SaveShardDelta(mk(2, 11), 0); err != nil {
		t.Fatal(err)
	}
	if n := memChunkCount(inner); n != 2*one {
		t.Fatalf("two distinct anchors share chunks: %d vs %d", n, 2*one)
	}
	if err := s.ClearShardDeltas("app", 0, 2); err != nil {
		t.Fatal(err)
	}
	if n := memChunkCount(inner); n != one {
		t.Fatalf("GC below seq 2 left %d chunks, want %d", n, one)
	}
	d, found, err := s.LoadShardDelta("app", 0, 2)
	if err != nil || !found {
		t.Fatalf("surviving link: found=%v err=%v", found, err)
	}
	if got := d.Full["Vec"]; len(got.Fs) != 3*serial.DeltaChunkElems+17 {
		t.Fatalf("surviving anchor lost its payload: len %d", len(got.Fs))
	}
	if err := s.ClearShardDeltas("app", 0, 0); err != nil {
		t.Fatal(err)
	}
	if n := memChunkCount(inner); n != 0 {
		t.Fatalf("%d chunks leaked after full shard-chain GC", n)
	}
}

func TestChunkRefcountConformance(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			payload := serial.PackF64s(nil, []float64{1, 2, 3})
			key := serial.ChunkKey(payload)
			if dup, err := s.PutChunk(key, payload); err != nil || dup {
				t.Fatalf("first put: dup=%v err=%v", dup, err)
			}
			if dup, err := s.PutChunk(key, payload); err != nil || !dup {
				t.Fatalf("second put: dup=%v err=%v", dup, err)
			}
			if err := s.ReleaseChunks([]string{key}); err != nil {
				t.Fatal(err)
			}
			got, found, err := s.GetChunk(key)
			if err != nil || !found {
				t.Fatalf("chunk vanished while still referenced: found=%v err=%v", found, err)
			}
			if string(got) != string(payload) {
				t.Fatal("chunk payload corrupted")
			}
			if err := s.ReleaseChunks([]string{key}); err != nil {
				t.Fatal(err)
			}
			if _, found, err := s.GetChunk(key); err != nil || found {
				t.Fatalf("chunk survived its last release: found=%v err=%v", found, err)
			}
			// Releasing an unknown key is not an error.
			if err := s.ReleaseChunks([]string{key}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
