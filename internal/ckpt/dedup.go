package ckpt

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"ppar/internal/serial"
)

// casFieldPrefix marks an envelope field holding the chunk references that
// replace a whole large float field, and casDeltaPrefix the references that
// replace one chunked delta section. Application field names come from Go
// struct fields and can never contain ':', so the prefixes are unambiguous.
const (
	casFieldPrefix = "__cas:"
	casDeltaPrefix = "__casd:"
)

// Dedup wraps an inner Store with content-addressed deduplication of large
// float state: every artifact saved through it has its big []float64 and
// [][]float64 payloads split on the same fixed grid the delta differ uses
// (serial.DeltaChunkElems elements per chunk, row groups covering about as
// much for matrices) and stored once per distinct content via the inner
// store's PutChunk. The artifact itself becomes a small envelope carrying
// chunk references, with every chain header (App/Mode/SafePoints/BaseSP/
// Seq) intact in cleartext, so the inner store's chain-consistency rules
// keep working unchanged. Because a chunk shipped in a delta and the same
// grid chunk of a full snapshot pack to identical bytes, deduplication
// applies across full and incremental captures, across shard ranks, across
// compaction generations — and across tenants, when the inner store is
// shared through Namespaced wrappers (chunk keys pass through namespaces
// unprefixed by design).
//
// Ordering contract (the chunk analogue of the manifest-then-GC rule the
// shard pipeline follows): chunks are put BEFORE the envelope that
// references them is saved, and references are released only AFTER the
// referencing artifact has been cleared. A crash anywhere in between leaks
// unreferenced chunks — reclaimable by a later put of the same content or
// an offline sweep — but can never persist a dangling reference.
//
// The reference ledger is process-local: a Dedup created in a fresh
// process over an existing store keeps every pre-existing chunk alive
// (leak-safe), and starts tracking from its first save.
//
// Compose Dedup outermost (e.g. Dedup(Gzip(FS))): wrappers that envelope
// the whole artifact would otherwise hide the float payloads from the
// chunker.
//
// Everything that carries no float payload — the manifest (tiny, and it must
// stay independently decodable), the ledger, and direct chunk calls from
// composed chunk users — is the inner store's.
type Dedup struct {
	Store

	mu          sync.Mutex
	base        map[string][]string              // app -> canonical base chunk keys
	chain       map[string][][]string            // app -> per delta-link chunk keys
	shardChains map[shardKey]map[uint64][]string // per shard-chain link chunk keys
	stats       DedupStats
}

type shardKey struct {
	app  string
	rank int
}

var _ Store = (*Dedup)(nil)

// NewDedup wraps inner with content-addressed deduplication.
func NewDedup(inner Store) *Dedup {
	return &Dedup{
		Store:       inner,
		base:        map[string][]string{},
		chain:       map[string][][]string{},
		shardChains: map[shardKey]map[uint64][]string{},
	}
}

// DedupStats describes the cumulative effect of a Dedup wrapper: how many
// payload bytes the saved artifacts carried logically versus how many the
// chunk store actually had to write.
type DedupStats struct {
	// LogicalBytes is the total chunk payload passed through the wrapper.
	LogicalBytes int64
	// PhysicalBytes is the payload actually stored (first copies only).
	PhysicalBytes int64
	// Chunks counts every chunk put; DupChunks the ones already present.
	Chunks, DupChunks int64
}

// Ratio reports logical over physical bytes — 1.0 means no duplication was
// found, higher means the store wrote that factor less data than it was
// handed. A wrapper that has chunked nothing reports 1.0.
func (st DedupStats) Ratio() float64 {
	if st.PhysicalBytes == 0 {
		return 1
	}
	return float64(st.LogicalBytes) / float64(st.PhysicalBytes)
}

// Stats returns a snapshot of the wrapper's cumulative dedup counters.
func (s *Dedup) Stats() DedupStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// chunkable mirrors the differ's grid predicate: only fields big enough to
// span multiple grid chunks are content-addressed; everything else stays
// inline in the envelope.
func chunkable(v serial.Value) bool {
	switch v.Tag {
	case serial.TFloat64s:
		return len(v.Fs) > serial.DeltaChunkElems
	case serial.TFloat64_2:
		if v.Rows*v.Cols <= serial.DeltaChunkElems || v.Cols <= 0 || len(v.F2) != v.Rows {
			return false
		}
		for _, row := range v.F2 {
			if len(row) != v.Cols {
				return false // ragged: keep inline rather than guess a shape
			}
		}
		return true
	}
	return false
}

// gridRows reports how many consecutive matrix rows one chunk covers —
// identical to the StateHash grid, so delta row-chunks and full-field
// row-chunks of the same matrix key identically.
func gridRows(cols int) int {
	n := serial.DeltaChunkElems / cols
	if n < 1 {
		n = 1
	}
	return n
}

// putChunk stores one packed payload and returns its key, accounting it.
func (s *Dedup) putChunk(payload []byte) (string, error) {
	key := serial.ChunkKey(payload)
	dup, err := s.Store.PutChunk(key, payload)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.stats.Chunks++
	s.stats.LogicalBytes += int64(len(payload))
	if dup {
		s.stats.DupChunks++
	} else {
		s.stats.PhysicalBytes += int64(len(payload))
	}
	s.mu.Unlock()
	return key, nil
}

// release drops references, swallowing nothing: the caller decides whether
// a release failure may surface (it never un-persists a saved artifact).
func (s *Dedup) release(keys []string) error {
	if len(keys) == 0 {
		return nil
	}
	return s.Store.ReleaseChunks(keys)
}

// dehydrateSnap replaces every chunkable field of snap with a reference
// envelope field, putting the chunks first. It never mutates snap; when
// nothing is chunkable it returns snap itself. The returned keys are every
// reference taken, including on error (so the caller can release them).
func (s *Dedup) dehydrateSnap(snap *serial.Snapshot) (*serial.Snapshot, []string, error) {
	var names []string
	for name, v := range snap.Fields {
		if chunkable(v) {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return snap, nil, nil
	}
	sort.Strings(names) // deterministic put order
	env := serial.NewSnapshot(snap.App, snap.Mode, snap.SafePoints)
	for name, v := range snap.Fields {
		env.Fields[name] = v
	}
	var keys []string
	var scratch []byte
	for _, name := range names {
		v := snap.Fields[name]
		var blob strings.Builder
		switch v.Tag {
		case serial.TFloat64s:
			fmt.Fprintf(&blob, "s %d\n", len(v.Fs))
			for off := 0; off < len(v.Fs); off += serial.DeltaChunkElems {
				end := off + serial.DeltaChunkElems
				if end > len(v.Fs) {
					end = len(v.Fs)
				}
				scratch = serial.PackF64s(scratch[:0], v.Fs[off:end])
				key, err := s.putChunk(scratch)
				if err != nil {
					return nil, keys, err
				}
				keys = append(keys, key)
				fmt.Fprintf(&blob, "%s\n", key)
			}
		case serial.TFloat64_2:
			fmt.Fprintf(&blob, "m %d %d\n", v.Rows, v.Cols)
			per := gridRows(v.Cols)
			for r := 0; r < v.Rows; r += per {
				end := r + per
				if end > v.Rows {
					end = v.Rows
				}
				scratch = scratch[:0]
				for _, row := range v.F2[r:end] {
					scratch = serial.PackF64s(scratch, row)
				}
				key, err := s.putChunk(scratch)
				if err != nil {
					return nil, keys, err
				}
				keys = append(keys, key)
				fmt.Fprintf(&blob, "%s\n", key)
			}
		}
		delete(env.Fields, name)
		env.Fields[casFieldPrefix+name] = serial.Bytes([]byte(blob.String()))
	}
	return env, keys, nil
}

// rehydrateSnap resolves an envelope snapshot's chunk references back into
// the real fields; snapshots written without the wrapper pass through.
func (s *Dedup) rehydrateSnap(env *serial.Snapshot) (*serial.Snapshot, error) {
	wrapped := false
	for name := range env.Fields {
		if strings.HasPrefix(name, casFieldPrefix) {
			wrapped = true
			break
		}
	}
	if !wrapped {
		return env, nil
	}
	out := serial.NewSnapshot(env.App, env.Mode, env.SafePoints)
	for name, v := range env.Fields {
		if !strings.HasPrefix(name, casFieldPrefix) {
			out.Fields[name] = v
			continue
		}
		real := strings.TrimPrefix(name, casFieldPrefix)
		rv, err := s.rehydrateField(real, string(v.B))
		if err != nil {
			return nil, err
		}
		out.Fields[real] = rv
	}
	return out, nil
}

// rehydrateField rebuilds one whole field from its reference blob.
func (s *Dedup) rehydrateField(name, blob string) (serial.Value, error) {
	lines := splitRefLines(blob)
	if len(lines) == 0 {
		return serial.Value{}, fmt.Errorf("ckpt: dedup: empty reference for field %q", name)
	}
	switch {
	case strings.HasPrefix(lines[0], "s "):
		var n int
		if _, err := fmt.Sscanf(lines[0], "s %d", &n); err != nil || n < 0 {
			return serial.Value{}, fmt.Errorf("ckpt: dedup: bad slice reference for %q", name)
		}
		full := make([]float64, n)
		for i, key := range lines[1:] {
			off := i * serial.DeltaChunkElems
			data, err := s.chunkF64s(name, key)
			if err != nil {
				return serial.Value{}, err
			}
			if off+len(data) > n {
				return serial.Value{}, fmt.Errorf("ckpt: dedup: chunk %d of %q overruns the field", i, name)
			}
			copy(full[off:], data)
		}
		return serial.Float64s(full), nil
	case strings.HasPrefix(lines[0], "m "):
		var rows, cols int
		if _, err := fmt.Sscanf(lines[0], "m %d %d", &rows, &cols); err != nil || rows < 0 || cols < 1 {
			return serial.Value{}, fmt.Errorf("ckpt: dedup: bad matrix reference for %q", name)
		}
		m := make([][]float64, rows)
		per := gridRows(cols)
		for i, key := range lines[1:] {
			r := i * per
			data, err := s.chunkF64s(name, key)
			if err != nil {
				return serial.Value{}, err
			}
			if len(data)%cols != 0 || r+len(data)/cols > rows {
				return serial.Value{}, fmt.Errorf("ckpt: dedup: row chunk %d of %q does not fit a %dx%d matrix", i, name, rows, cols)
			}
			for j := 0; j < len(data)/cols; j++ {
				m[r+j] = data[j*cols : (j+1)*cols : (j+1)*cols]
			}
		}
		for i, row := range m {
			if row == nil {
				return serial.Value{}, fmt.Errorf("ckpt: dedup: matrix %q is missing row %d", name, i)
			}
		}
		return serial.Float64Matrix(m), nil
	}
	return serial.Value{}, fmt.Errorf("ckpt: dedup: unknown reference kind for field %q", name)
}

func (s *Dedup) chunkF64s(name, key string) ([]float64, error) {
	payload, found, err := s.Store.GetChunk(key)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("ckpt: dedup: field %q references missing chunk %s", name, key)
	}
	if serial.ChunkKey(payload) != key {
		return nil, fmt.Errorf("ckpt: dedup: chunk %s is corrupt", key)
	}
	return serial.UnpackF64s(payload)
}

func splitRefLines(blob string) []string {
	lines := strings.Split(strings.TrimRight(blob, "\n"), "\n")
	if len(lines) == 1 && lines[0] == "" {
		return nil
	}
	return lines
}

// dehydrateDelta replaces a delta's chunkable whole-field replacements and
// its chunked slice/matrix sections with reference fields, putting the
// chunks first. Like dehydrateSnap it never mutates d and passes a delta
// with nothing to chunk through untouched.
func (s *Dedup) dehydrateDelta(d *serial.Delta) (*serial.Delta, []string, error) {
	needs := false
	for _, v := range d.Full {
		if chunkable(v) {
			needs = true
		}
	}
	if len(d.Slices) > 0 || len(d.Matrices) > 0 {
		needs = true
	}
	if !needs {
		return d, nil, nil
	}
	env := serial.NewDelta(d.App, d.Mode, d.SafePoints, d.BaseSP)
	env.Seq = d.Seq
	env.Removed = d.Removed
	var keys []string
	var scratch []byte
	for name, v := range d.Full {
		env.Full[name] = v
	}
	snapPart := serial.NewSnapshot(d.App, d.Mode, d.SafePoints)
	for name, v := range d.Full {
		if chunkable(v) {
			snapPart.Fields[name] = v
		}
	}
	if len(snapPart.Fields) > 0 {
		envPart, partKeys, err := s.dehydrateSnap(snapPart)
		keys = append(keys, partKeys...)
		if err != nil {
			return nil, keys, err
		}
		for name, v := range envPart.Fields {
			if strings.HasPrefix(name, casFieldPrefix) {
				delete(env.Full, strings.TrimPrefix(name, casFieldPrefix))
				env.Full[name] = v
			}
		}
	}
	for _, name := range sortedKeysOf(d.Slices) {
		sd := d.Slices[name]
		var blob strings.Builder
		fmt.Fprintf(&blob, "S %d\n", sd.Len)
		for _, c := range sd.Chunks {
			scratch = serial.PackF64s(scratch[:0], c.Data)
			key, err := s.putChunk(scratch)
			if err != nil {
				return nil, keys, err
			}
			keys = append(keys, key)
			fmt.Fprintf(&blob, "%d %d %s\n", c.Off, len(c.Data), key)
		}
		env.Full[casDeltaPrefix+name] = serial.Bytes([]byte(blob.String()))
	}
	for _, name := range sortedKeysOf(d.Matrices) {
		md := d.Matrices[name]
		var blob strings.Builder
		fmt.Fprintf(&blob, "M %d %d\n", md.Rows, md.Cols)
		for _, c := range md.Chunks {
			scratch = scratch[:0]
			for _, row := range c.Rows {
				scratch = serial.PackF64s(scratch, row)
			}
			key, err := s.putChunk(scratch)
			if err != nil {
				return nil, keys, err
			}
			keys = append(keys, key)
			fmt.Fprintf(&blob, "%d %d %s\n", c.Row, len(c.Rows), key)
		}
		env.Full[casDeltaPrefix+name] = serial.Bytes([]byte(blob.String()))
	}
	return env, keys, nil
}

func sortedKeysOf[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// rehydrateDelta resolves an envelope delta back into the real one; deltas
// written without the wrapper pass through.
func (s *Dedup) rehydrateDelta(env *serial.Delta) (*serial.Delta, error) {
	wrapped := false
	for name := range env.Full {
		if strings.HasPrefix(name, casFieldPrefix) || strings.HasPrefix(name, casDeltaPrefix) {
			wrapped = true
			break
		}
	}
	if !wrapped {
		return env, nil
	}
	d := serial.NewDelta(env.App, env.Mode, env.SafePoints, env.BaseSP)
	d.Seq = env.Seq
	d.Removed = env.Removed
	for name, v := range env.Full {
		switch {
		case strings.HasPrefix(name, casFieldPrefix):
			real := strings.TrimPrefix(name, casFieldPrefix)
			rv, err := s.rehydrateField(real, string(v.B))
			if err != nil {
				return nil, err
			}
			d.Full[real] = rv
		case strings.HasPrefix(name, casDeltaPrefix):
			real := strings.TrimPrefix(name, casDeltaPrefix)
			if err := s.rehydrateSection(d, real, string(v.B)); err != nil {
				return nil, err
			}
		default:
			d.Full[name] = v
		}
	}
	return d, nil
}

// rehydrateSection rebuilds one chunked slice or matrix delta section.
func (s *Dedup) rehydrateSection(d *serial.Delta, name, blob string) error {
	lines := splitRefLines(blob)
	if len(lines) == 0 {
		return fmt.Errorf("ckpt: dedup: empty section reference for %q", name)
	}
	switch {
	case strings.HasPrefix(lines[0], "S "):
		var n int
		if _, err := fmt.Sscanf(lines[0], "S %d", &n); err != nil || n < 0 {
			return fmt.Errorf("ckpt: dedup: bad slice section reference for %q", name)
		}
		sd := serial.SliceDelta{Len: n}
		for _, line := range lines[1:] {
			var off, count int
			var key string
			if _, err := fmt.Sscanf(line, "%d %d %s", &off, &count, &key); err != nil {
				return fmt.Errorf("ckpt: dedup: bad slice chunk reference for %q", name)
			}
			data, err := s.chunkF64s(name, key)
			if err != nil {
				return err
			}
			if len(data) != count || off < 0 || off+count > n {
				return fmt.Errorf("ckpt: dedup: slice chunk [%d,+%d) of %q does not match its payload", off, count, name)
			}
			sd.Chunks = append(sd.Chunks, serial.SliceChunk{Off: off, Data: data})
		}
		d.Slices[name] = sd
	case strings.HasPrefix(lines[0], "M "):
		var rows, cols int
		if _, err := fmt.Sscanf(lines[0], "M %d %d", &rows, &cols); err != nil || rows < 0 || cols < 1 {
			return fmt.Errorf("ckpt: dedup: bad matrix section reference for %q", name)
		}
		md := serial.MatrixDelta{Rows: rows, Cols: cols}
		for _, line := range lines[1:] {
			var row, nrows int
			var key string
			if _, err := fmt.Sscanf(line, "%d %d %s", &row, &nrows, &key); err != nil {
				return fmt.Errorf("ckpt: dedup: bad row chunk reference for %q", name)
			}
			data, err := s.chunkF64s(name, key)
			if err != nil {
				return err
			}
			if nrows < 1 || len(data) != nrows*cols || row < 0 || row+nrows > rows {
				return fmt.Errorf("ckpt: dedup: row chunk [%d,+%d) of %q does not match its payload", row, nrows, name)
			}
			block := make([][]float64, nrows)
			for i := range block {
				block[i] = data[i*cols : (i+1)*cols : (i+1)*cols]
			}
			md.Chunks = append(md.Chunks, serial.MatrixChunk{Row: row, Rows: block})
		}
		d.Matrices[name] = md
	default:
		return fmt.Errorf("ckpt: dedup: unknown section reference kind for %q", name)
	}
	return nil
}

// Save dehydrates and stores the canonical snapshot, then releases the
// references of the base it replaced (put-before-link, clear-before-
// release: a failure leaves at worst leaked chunks, never a dangling
// reference).
func (s *Dedup) Save(snap *serial.Snapshot) error {
	env, keys, err := s.dehydrateSnap(snap)
	if err != nil {
		s.release(keys)
		return err
	}
	if err := s.Store.Save(env); err != nil {
		s.release(keys)
		return err
	}
	s.mu.Lock()
	old := s.base[snap.App]
	s.base[snap.App] = keys
	s.mu.Unlock()
	return s.release(old)
}

// SaveDelta dehydrates and appends one canonical chain link, recording its
// references for ClearDeltas to release.
func (s *Dedup) SaveDelta(d *serial.Delta) error {
	env, keys, err := s.dehydrateDelta(d)
	if err != nil {
		s.release(keys)
		return err
	}
	if err := s.Store.SaveDelta(env); err != nil {
		s.release(keys)
		return err
	}
	if len(keys) > 0 {
		s.mu.Lock()
		s.chain[d.App] = append(s.chain[d.App], keys)
		s.mu.Unlock()
	}
	return nil
}

// SaveShardDelta dehydrates and appends one shard-chain link, recording its
// references for ClearShardDeltas to release.
func (s *Dedup) SaveShardDelta(d *serial.Delta, rank int) error {
	env, keys, err := s.dehydrateDelta(d)
	if err != nil {
		s.release(keys)
		return err
	}
	if err := s.Store.SaveShardDelta(env, rank); err != nil {
		s.release(keys)
		return err
	}
	sk := shardKey{app: d.App, rank: rank}
	s.mu.Lock()
	m := s.shardChains[sk]
	if m == nil {
		m = map[uint64][]string{}
		s.shardChains[sk] = m
	}
	old := m[d.Seq]
	m[d.Seq] = keys
	s.mu.Unlock()
	return s.release(old)
}

// Load reads and rehydrates the canonical snapshot; a snapshot whose
// chunks cannot be resolved reports found=true with the error, like any
// other corruption.
func (s *Dedup) Load(app string) (*serial.Snapshot, bool, error) {
	env, found, err := s.Store.Load(app)
	return unwrapped(env, found, err, s.rehydrateSnap)
}

// LoadChain reads and rehydrates the canonical chain. A link whose chunks
// cannot be resolved truncates the chain there, exactly like a torn write —
// every shorter prefix is still a consistent checkpoint.
func (s *Dedup) LoadChain(app string) (*serial.Snapshot, []*serial.Delta, bool, error) {
	base, envs, found, err := s.Store.LoadChain(app)
	return unwrappedChain(base, envs, found, err, s.rehydrateSnap, s.rehydrateDelta)
}

// LoadShardDelta reads and rehydrates one shard-chain link; unresolvable
// chunks report found=true with the error, like a torn link.
func (s *Dedup) LoadShardDelta(app string, rank int, seq uint64) (*serial.Delta, bool, error) {
	env, found, err := s.Store.LoadShardDelta(app, rank, seq)
	return unwrapped(env, found, err, s.rehydrateDelta)
}

// ClearShardDeltas clears the links first, then releases their chunk
// references (clear-before-release).
func (s *Dedup) ClearShardDeltas(app string, rank int, below uint64) error {
	if err := s.Store.ClearShardDeltas(app, rank, below); err != nil {
		return err
	}
	sk := shardKey{app: app, rank: rank}
	var dead []string
	s.mu.Lock()
	for seq, keys := range s.shardChains[sk] {
		if below == 0 || seq < below {
			dead = append(dead, keys...)
			delete(s.shardChains[sk], seq)
		}
	}
	s.mu.Unlock()
	return s.release(dead)
}

// Clear removes app's artifacts, then releases every reference the ledger
// holds for them (clear-before-release).
func (s *Dedup) Clear(app string) error {
	if err := s.Store.Clear(app); err != nil {
		return err
	}
	var dead []string
	s.mu.Lock()
	dead = append(dead, s.base[app]...)
	delete(s.base, app)
	for _, keys := range s.chain[app] {
		dead = append(dead, keys...)
	}
	delete(s.chain, app)
	for sk, m := range s.shardChains {
		if sk.app == app {
			for _, keys := range m {
				dead = append(dead, keys...)
			}
			delete(s.shardChains, sk)
		}
	}
	s.mu.Unlock()
	return s.release(dead)
}

// ClearDeltas clears the canonical chain first, then releases its chunk
// references (clear-before-release).
func (s *Dedup) ClearDeltas(app string) error {
	if err := s.Store.ClearDeltas(app); err != nil {
		return err
	}
	var dead []string
	s.mu.Lock()
	for _, keys := range s.chain[app] {
		dead = append(dead, keys...)
	}
	delete(s.chain, app)
	s.mu.Unlock()
	return s.release(dead)
}
