// Package ckpt implements the checkpoint machinery of §IV.A: pluggable
// snapshot stores, the run ledger (the paper's pcr module, which "verifies
// if the last execution was concluded without failures" by rewriting main),
// the checkpoint policy ("a checkpoint might be taken only after a set of
// safe points"), and the replay state machine used for restart and for
// bootstrapping new threads/processes during run-time adaptation.
//
// Storage has two seams. The typed Store interface is what the engine and
// the wrappers (Gzip, Dedup, Namespaced) speak: snapshots, chain links,
// manifests, chunks and the ledger, each with its crash-ordering contract.
// Beneath it, the unexported blobs interface is what a backend provides:
// four methods over named byte blobs — atomic durable Put, Open, Delete,
// List. The layout type implements all of Store over any blobs, once:
// artifact naming, chain truncation, exact-name Clear, the ledger marker
// and chunk reference counting live there and nowhere else. FS is layout
// over a directory, Mem layout over a map, FaultStore layout over a map
// with a fault hook; a new backend (mmap, object store, remote) is those
// four methods and a constructor.
package ckpt

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"ppar/internal/serial"
)

// Store is a pluggable checkpoint backend: it persists the canonical
// snapshot, its delta chain and the per-rank shard chains, and keeps the
// crash ledger that decides whether the next run must replay.
// Implementations must be safe for concurrent use by multiple ranks
// (SaveShardDelta/LoadShardDelta are called from every replica of a
// distributed run).
type Store interface {
	// Save atomically writes the canonical (whole-application) snapshot,
	// replacing any previous one for the same application.
	Save(snap *serial.Snapshot) error
	// SaveDelta atomically appends one incremental checkpoint to the
	// canonical delta chain. The caller assigns Seq contiguously from 1
	// after each full Save; a crash mid-write must never damage earlier
	// links.
	SaveDelta(d *serial.Delta) error
	// Load reads the canonical snapshot for app. found=false (with nil
	// error) means no checkpoint exists.
	Load(app string) (snap *serial.Snapshot, found bool, err error)
	// LoadChain reads the canonical snapshot plus the longest consistent
	// prefix of its delta chain: deltas are returned in Seq order starting
	// at 1 and the chain is truncated at the first missing, corrupt (e.g.
	// torn write) or stale link — a stale delta is one whose BaseSP does
	// not match the base snapshot, left behind by a compaction that
	// crashed between writing the new base and clearing old deltas. Each
	// returned prefix is itself a consistent checkpoint, so truncation is
	// always safe. found and err describe the base snapshot exactly as in
	// Load.
	LoadChain(app string) (base *serial.Snapshot, deltas []*serial.Delta, found bool, err error)

	// SaveShardDelta atomically appends one link to rank's shard chain
	// (app.rN.dM.ckpt for chain position M = d.Seq). Shard chains are
	// append-only: the caller assigns Seq monotonically — continuing past
	// the newest committed manifest after a restart — so a committed link
	// is never overwritten in place; anchor links (serial.AnchorDelta)
	// carry the rank's full state, plain links only the changed chunks.
	SaveShardDelta(d *serial.Delta, rank int) error
	// LoadShardDelta reads one link of rank's shard chain. found=false with
	// nil error means the link does not exist; a link that exists but is
	// damaged (torn write) reports found=true with the decode error.
	LoadShardDelta(app string, rank int, seq uint64) (*serial.Delta, bool, error)
	// ClearShardDeltas removes the links of rank's shard chain with Seq
	// below the given bound (0 removes every link) — the per-chain garbage
	// collection run after a manifest referencing a newer anchor has
	// committed, in that order, so a crash in between leaves stale links
	// the manifest never references rather than a missing restart point.
	ClearShardDeltas(app string, rank int, below uint64) error
	// SaveManifest atomically replaces the shard-checkpoint commit record
	// for m.App. It is written last, after every shard artifact of a save
	// wave has been persisted: a save without a manifest is not a restart
	// point, which is what keeps a torn multi-shard save from ever being
	// mistaken for a complete one.
	SaveManifest(m *serial.Manifest) error
	// LoadManifest reads the commit record, following the Load conventions
	// (found=false means no sharded restart point exists).
	LoadManifest(app string) (*serial.Manifest, bool, error)

	// Clear removes all snapshots (canonical, deltas, shard chains and the
	// manifest) for app.
	Clear(app string) error
	// ClearDeltas removes only the delta chain for app — compaction's
	// garbage collection, called after a new full snapshot has been
	// persisted (in that order, so a crash in between leaves stale deltas
	// that LoadChain filters out rather than a missing restart point).
	ClearDeltas(app string) error

	// PutChunk stores one content-addressed chunk payload under key
	// (serial.ChunkKey of the payload) and takes one reference to it. If a
	// chunk with the key already exists its reference count is incremented
	// instead and dup reports true — the deduplication mechanism: identical
	// chunks across deltas, shards, applications and (via Namespaced)
	// tenants are stored once. Implementations must not retain payload
	// after the call returns. Callers must put every chunk BEFORE saving an
	// artifact that references it, so a crash can only ever leak an
	// unreferenced chunk, never persist a dangling reference.
	PutChunk(key string, payload []byte) (dup bool, err error)
	// GetChunk reads one chunk payload. found=false with nil error means no
	// chunk with the key exists.
	GetChunk(key string) (payload []byte, found bool, err error)
	// ReleaseChunks drops one reference from each named chunk, deleting a
	// chunk when its count reaches zero. Callers must release only AFTER
	// the last artifact referencing the chunks has been cleared (mirroring
	// the manifest-then-GC ordering of the shard chains): a crash between
	// the two leaks chunks rather than dangling references. Releasing an
	// unknown key is not an error (a leaked chunk may already be gone).
	ReleaseChunks(keys []string) error

	// LedgerStart marks a run of app as in progress (the pcr module).
	LedgerStart(app string) error
	// LedgerFinish marks the run as cleanly completed.
	LedgerFinish(app string) error
	// Crashed reports whether the previous run of app failed to conclude —
	// a start marker with no matching finish.
	Crashed(app string) (bool, error)
}

// FS is the filesystem Store: the checkpoint layout over one file per blob
// inside Dir.
type FS struct {
	Dir string
	layout
}

var _ Store = (*FS)(nil)

// NewFS creates a filesystem store rooted at dir, creating it if needed.
func NewFS(dir string) (*FS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: creating store dir: %w", err)
	}
	return &FS{Dir: dir, layout: layout{b: dirBlobs(dir)}}, nil
}

// dirBlobs keeps each blob in the file of the same name in one directory.
type dirBlobs string

// tempPrefix starts the name of every file a Put is still writing (or died
// writing); List hides them.
const tempPrefix = ".ckpt-"

// Put streams into a temp file, fsyncs it, renames it over the final name
// and fsyncs the directory, so a failure during checkpointing never destroys
// the previous valid checkpoint.
func (dir dirBlobs) Put(name string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(string(dir), tempPrefix+"*")
	if err != nil {
		return fmt.Errorf("ckpt: temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: writing %s: %w", name, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: close: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(string(dir), name)); err != nil {
		return fmt.Errorf("ckpt: rename: %w", err)
	}
	// The rename is only durable once the directory entry itself is on
	// disk: without the parent fsync a power failure can lose the
	// just-renamed checkpoint even though the data blocks were synced.
	if err := syncDir(string(dir)); err != nil {
		return fmt.Errorf("ckpt: sync dir: %w", err)
	}
	return nil
}

func syncDir(dir string) error {
	if runtime.GOOS == "windows" {
		// Directory handles cannot be fsynced on Windows; the rename
		// itself is the best durability available there.
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (dir dirBlobs) Open(name string) (io.ReadCloser, error) {
	return os.Open(filepath.Join(string(dir), name))
}

func (dir dirBlobs) Delete(name string) error {
	err := os.Remove(filepath.Join(string(dir), name))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

func (dir dirBlobs) List() ([]string, error) {
	entries, err := os.ReadDir(string(dir))
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), tempPrefix) {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// Mem is an in-memory Store for fast tests and embedded use: the checkpoint
// layout over a map of encoded blobs, so Save/Load exercise the same
// serialisation path as the filesystem store and loaded snapshots never
// alias the saver's field slices. A Mem value must be shared (not copied)
// between the runs that are meant to see each other's checkpoints.
type Mem struct {
	layout
	m *memBlobs
}

var _ Store = (*Mem)(nil)

// NewMem creates an empty in-memory store.
func NewMem() *Mem {
	m := newMemBlobs()
	return &Mem{layout: layout{b: m}, m: m}
}

// Size reports the store's live footprint: how many blobs it holds
// (artifacts, dedup chunks and their bookkeeping) and their total bytes.
// Soak tests assert this stays bounded across arbitrarily long churn — a
// chain that is never compacted or a relaunch that leaks old artifacts
// shows up here as monotone growth.
func (s *Mem) Size() (items int, bytes int64) {
	s.m.mu.Lock()
	defer s.m.mu.Unlock()
	for _, b := range s.m.m {
		bytes += int64(len(b))
	}
	return len(s.m.m), bytes
}

// memBlobs keeps blobs in a map. A stored slice is never written again, so
// readers share it without copying.
type memBlobs struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMemBlobs() *memBlobs { return &memBlobs{m: map[string][]byte{}} }

func (s *memBlobs) Put(name string, write func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return fmt.Errorf("ckpt: writing %s: %w", name, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[name] = buf.Bytes()
	return nil
}

func (s *memBlobs) Open(name string) (io.ReadCloser, error) {
	s.mu.Lock()
	blob, ok := s.m[name]
	s.mu.Unlock()
	if !ok {
		return nil, fs.ErrNotExist
	}
	return io.NopCloser(bytes.NewReader(blob)), nil
}

func (s *memBlobs) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, name)
	return nil
}

func (s *memBlobs) List() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.m))
	for name := range s.m {
		names = append(names, name)
	}
	return names, nil
}

// gzipMode marks envelope snapshots written by the Gzip wrapper.
const gzipMode = "gzip"

// gzipField is the single field of an envelope snapshot, holding the
// compressed container bytes of the real snapshot.
const gzipField = "__gz"

// Gzip wraps an inner Store with transparent gzip compression: snapshots
// and chain links are encoded, compressed, and stored through the inner
// store as a small envelope (one bytes field holding the compressed
// container). A link's envelope is itself a delta whose chain header
// (App/SafePoints/BaseSP/Seq) mirrors the real one in cleartext, so the inner
// store's LoadChain can validate link order and staleness without
// decompressing. Loads pass envelopes back through gunzip and decode;
// artifacts written without the wrapper are returned unchanged, so a store
// can be upgraded to compression without invalidating existing checkpoints.
//
// Everything else is the inner store's: the manifest is a few dozen bytes
// and must stay independently decodable, and chunk payloads are keyed by
// their exact content, so compressing them here would break the content
// address (a backend wanting compressed chunks compresses below the key).
type Gzip struct {
	Store
}

// NewGzip wraps inner with gzip compression.
func NewGzip(inner Store) *Gzip { return &Gzip{inner} }

// gzipped streams a container straight through the codec: no uncompressed
// copy of the (potentially large) application state is materialised.
func gzipped(encode func(io.Writer) error) (serial.Value, error) {
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if err := encode(zw); err != nil {
		return serial.Value{}, fmt.Errorf("ckpt: gzip encode: %w", err)
	}
	if err := zw.Close(); err != nil {
		return serial.Value{}, fmt.Errorf("ckpt: gzip close: %w", err)
	}
	return serial.Bytes(gz.Bytes()), nil
}

func gunzipped[T any](payload []byte, decode func(io.Reader) (*T, error)) (*T, error) {
	zr, err := gzip.NewReader(bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("ckpt: gunzip: %w", err)
	}
	defer zr.Close()
	v, err := decode(zr)
	if err != nil {
		return nil, fmt.Errorf("ckpt: decode compressed artifact: %w", err)
	}
	return v, nil
}

func compress(snap *serial.Snapshot) (*serial.Snapshot, error) {
	gz, err := gzipped(snap.Encode)
	if err != nil {
		return nil, err
	}
	env := serial.NewSnapshot(snap.App, gzipMode, snap.SafePoints)
	env.Fields[gzipField] = gz
	return env, nil
}

func decompress(env *serial.Snapshot) (*serial.Snapshot, error) {
	v, ok := env.Fields[gzipField]
	if env.Mode != gzipMode || !ok {
		return env, nil // written without the wrapper: pass through
	}
	return gunzipped(v.B, serial.Decode)
}

func compressDelta(d *serial.Delta) (*serial.Delta, error) {
	gz, err := gzipped(d.Encode)
	if err != nil {
		return nil, err
	}
	env := serial.NewDelta(d.App, gzipMode, d.SafePoints, d.BaseSP)
	env.Seq = d.Seq
	env.Full[gzipField] = gz
	return env, nil
}

func decompressDelta(env *serial.Delta) (*serial.Delta, error) {
	v, ok := env.Full[gzipField]
	if env.Mode != gzipMode || !ok {
		return env, nil // written without the wrapper: pass through
	}
	return gunzipped(v.B, serial.DecodeDelta)
}

// unwrapped applies a wrapper's read-side transform to what its inner store
// loaded, keeping the Load conventions: an artifact that exists but cannot
// be unwrapped reports found=true alongside the error — found=false means
// (only) that no artifact exists, and callers use it to decide whether a
// restart point is available at all.
func unwrapped[T any](env *T, found bool, err error, unwrap func(*T) (*T, error)) (*T, bool, error) {
	if err != nil || !found {
		return nil, found, err
	}
	v, err := unwrap(env)
	return v, true, err
}

// unwrappedChain is unwrapped for LoadChain: a link that cannot be unwrapped
// (or, unwrapped, is not base's next link) truncates the chain there, exactly
// like a torn write in the inner store.
func unwrappedChain(base *serial.Snapshot, envs []*serial.Delta, found bool, err error,
	unwrap func(*serial.Snapshot) (*serial.Snapshot, error),
	unwrapDelta func(*serial.Delta) (*serial.Delta, error)) (*serial.Snapshot, []*serial.Delta, bool, error) {
	snap, found, err := unwrapped(base, found, err, unwrap)
	if err != nil || !found {
		return nil, nil, found, err
	}
	var deltas []*serial.Delta
	for _, env := range envs {
		d, derr := unwrapDelta(env)
		if derr != nil || !chainLink(snap, d, env.Seq) {
			break
		}
		deltas = append(deltas, d)
	}
	return snap, deltas, true, nil
}

// Save compresses and stores the canonical snapshot.
func (s *Gzip) Save(snap *serial.Snapshot) error {
	env, err := compress(snap)
	if err != nil {
		return err
	}
	return s.Store.Save(env)
}

// SaveDelta compresses and stores one delta checkpoint.
func (s *Gzip) SaveDelta(d *serial.Delta) error {
	env, err := compressDelta(d)
	if err != nil {
		return err
	}
	return s.Store.SaveDelta(env)
}

// SaveShardDelta compresses and appends one shard-chain link.
func (s *Gzip) SaveShardDelta(d *serial.Delta, rank int) error {
	env, err := compressDelta(d)
	if err != nil {
		return err
	}
	return s.Store.SaveShardDelta(env, rank)
}

// Load reads and decompresses the canonical snapshot.
func (s *Gzip) Load(app string) (*serial.Snapshot, bool, error) {
	env, found, err := s.Store.Load(app)
	return unwrapped(env, found, err, decompress)
}

// LoadChain reads and decompresses the canonical snapshot and its delta
// chain.
func (s *Gzip) LoadChain(app string) (*serial.Snapshot, []*serial.Delta, bool, error) {
	base, envs, found, err := s.Store.LoadChain(app)
	return unwrappedChain(base, envs, found, err, decompress, decompressDelta)
}

// LoadShardDelta reads and decompresses one shard-chain link.
func (s *Gzip) LoadShardDelta(app string, rank int, seq uint64) (*serial.Delta, bool, error) {
	env, found, err := s.Store.LoadShardDelta(app, rank, seq)
	return unwrapped(env, found, err, decompressDelta)
}
