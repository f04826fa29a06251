package ckpt

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"strings"
	"sync"

	"ppar/internal/serial"
)

// blobs is the backend seam: a flat namespace of named byte blobs. It is
// everything a storage backend has to provide — the checkpoint layout above
// it (artifact naming, chain truncation, the ledger, chunk refcounts) is
// written once, in layout, and is the same over every backend. Calls may
// arrive concurrently from several ranks and background writers.
type blobs interface {
	// Put atomically replaces the blob called name with what write streams
	// into w: a concurrent or later Open sees the complete old blob or the
	// complete new one, never a prefix, and a failed Put (write returned an
	// error, or the process died) leaves the old blob untouched. When Put
	// returns nil the blob must survive a crash of the machine.
	Put(name string, write func(w io.Writer) error) error
	// Open returns a reader over the blob; the error satisfies
	// errors.Is(err, fs.ErrNotExist) when there is none.
	Open(name string) (io.ReadCloser, error)
	// Delete removes the blob; deleting a missing blob is not an error. It
	// need not be durable: every blob a crash can bring back is one the
	// layout already tolerates (a stale link, a leaked chunk, a run marker
	// that makes the next run replay).
	Delete(name string) error
	// List returns the exact names of the complete blobs — never a Put
	// still in flight or the debris of one that died.
	List() ([]string, error)
}

// layout implements Store over a blob backend. FS, Mem and FaultStore are
// this type over their own blobs.
type layout struct {
	b blobs
	// fault, when set, is consulted once per Store call: it can fail the
	// call outright or tear its write (FaultStore's one hook).
	fault func(FaultOp) (fail error, tear bool)
	// casMu serialises the read-modify-write of chunk reference counts.
	// Chunk bookkeeping assumes one store value per backend per process, the
	// same single-writer discipline every other artifact already relies on.
	casMu sync.Mutex
}

// Artifact names. Chunk names do not end in ".ckpt", so Clear and the
// exact-name matchers never touch them: chunks are shared across
// applications (and tenants) and are reclaimed only by ReleaseChunks.
func canonicalName(app string) string { return app + ".ckpt" }
func manifestName(app string) string  { return app + ".manifest.ckpt" }
func ledgerName(app string) string    { return app + ".run" }
func chunkName(key string) string     { return "cas-" + key + ".chunk" }
func refName(key string) string       { return "cas-" + key + ".ref" }

func deltaName(app string, seq uint64) string {
	return fmt.Sprintf("%s.d%d.ckpt", app, seq)
}

func shardDeltaName(app string, rank int, seq uint64) string {
	return fmt.Sprintf("%s.r%d.d%d.ckpt", app, rank, seq)
}

func (l *layout) hook(op FaultOp) (fail error, tear bool) {
	if l.fault == nil {
		return nil, false
	}
	return l.fault(op)
}

// put writes one artifact. A torn put reports success but persists only the
// first half of the container, the way a crash mid-write on a backend
// without atomic replace would.
func (l *layout) put(op FaultOp, name string, encode func(io.Writer) error) error {
	fail, tear := l.hook(op)
	if fail != nil {
		return fail
	}
	if !tear {
		return l.b.Put(name, encode)
	}
	var buf bytes.Buffer
	if err := encode(&buf); err != nil {
		return err
	}
	return l.putBytes(name, buf.Bytes()[:buf.Len()/2])
}

// putBytes writes a blob that is already in memory.
func (l *layout) putBytes(name string, b []byte) error {
	return l.b.Put(name, func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
}

// putLink writes one chain link, which must carry its chain position.
func (l *layout) putLink(op FaultOp, name string, d *serial.Delta) error {
	if d.Seq == 0 {
		return fmt.Errorf("ckpt: delta for %q has no chain sequence number", d.App)
	}
	return l.put(op, name, d.Encode)
}

// load reads and decodes one artifact under the Load conventions: a missing
// blob is found=false with no error; one that exists but is damaged is
// found=true with the decode error, so callers can tell "no restart point"
// from "restart point corrupt".
func load[T any](l *layout, op FaultOp, name string, decode func(io.Reader) (*T, error)) (*T, bool, error) {
	if fail, _ := l.hook(op); fail != nil {
		return nil, false, fail
	}
	return read(l.b, name, decode)
}

func read[T any](b blobs, name string, decode func(io.Reader) (*T, error)) (*T, bool, error) {
	r, err := b.Open(name)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("ckpt: open: %w", err)
	}
	defer r.Close()
	v, err := decode(r)
	if err != nil {
		return nil, true, fmt.Errorf("ckpt: decode %s: %w", name, err)
	}
	return v, true, nil
}

func (l *layout) Save(snap *serial.Snapshot) error {
	return l.put(OpSave, canonicalName(snap.App), snap.Encode)
}

func (l *layout) SaveDelta(d *serial.Delta) error {
	return l.putLink(OpSaveDelta, deltaName(d.App, d.Seq), d)
}

func (l *layout) SaveShardDelta(d *serial.Delta, rank int) error {
	return l.putLink(OpSaveShardDelta, shardDeltaName(d.App, rank, d.Seq), d)
}

func (l *layout) SaveManifest(m *serial.Manifest) error {
	return l.put(OpSaveManifest, manifestName(m.App), m.Encode)
}

func (l *layout) Load(app string) (*serial.Snapshot, bool, error) {
	return load(l, OpLoad, canonicalName(app), serial.Decode)
}

func (l *layout) LoadShardDelta(app string, rank int, seq uint64) (*serial.Delta, bool, error) {
	return load(l, OpLoadShardDelta, shardDeltaName(app, rank, seq), serial.DecodeDelta)
}

func (l *layout) LoadManifest(app string) (*serial.Manifest, bool, error) {
	return load(l, OpLoadManifest, manifestName(app), serial.DecodeManifest)
}

// LoadChain truncates the chain at the first link that is missing,
// unreadable, torn or stale: every shorter prefix is still a consistent
// checkpoint.
func (l *layout) LoadChain(app string) (*serial.Snapshot, []*serial.Delta, bool, error) {
	base, found, err := load(l, OpLoadChain, canonicalName(app), serial.Decode)
	if err != nil || !found {
		return nil, nil, found, err
	}
	var deltas []*serial.Delta
	for seq := uint64(1); ; seq++ {
		d, found, err := read(l.b, deltaName(app, seq), serial.DecodeDelta)
		if !found || err != nil || !chainLink(base, d, seq) {
			break
		}
		deltas = append(deltas, d)
	}
	return base, deltas, true, nil
}

// chainLink reports whether d is the valid next link of base's chain: the
// right application, anchored at this base (not a stale pre-compaction
// delta), in the expected position.
func chainLink(base *serial.Snapshot, d *serial.Delta, seq uint64) bool {
	return d.App == base.App && d.BaseSP == base.SafePoints && d.Seq == seq
}

// Clear is never faulted: fault tests use it for set-up.
func (l *layout) Clear(app string) error {
	return l.clear(func(name string) bool { return ownedName(name, app) })
}

// ownedName reports whether name is one of app's checkpoint artifacts. Only
// the exact app.ckpt / app.dN.ckpt / app.rN.dM.ckpt / app.manifest.ckpt
// names match: a prefix match would also delete checkpoints of any
// application whose name merely starts with app (clearing "sor" must not
// wipe "sor-large").
func ownedName(name, app string) bool {
	if name == canonicalName(app) || name == manifestName(app) {
		return true
	}
	if _, ok := linkSeq(name, app+".d"); ok {
		return true
	}
	rest, ok := strings.CutPrefix(name, app+".r")
	if !ok {
		return false
	}
	rank, link, ok := strings.Cut(rest, ".d")
	if !ok || !allDigits(rank) {
		return false
	}
	_, ok = linkSeq(link, "")
	return ok
}

func (l *layout) ClearDeltas(app string) error {
	if fail, _ := l.hook(OpClearDeltas); fail != nil {
		return fail
	}
	return l.clear(func(name string) bool {
		_, ok := linkSeq(name, app+".d")
		return ok
	})
}

func (l *layout) ClearShardDeltas(app string, rank int, below uint64) error {
	if fail, _ := l.hook(OpClearShardDeltas); fail != nil {
		return fail
	}
	prefix := fmt.Sprintf("%s.r%d.d", app, rank)
	return l.clear(func(name string) bool {
		seq, ok := linkSeq(name, prefix)
		return ok && (below == 0 || seq < below)
	})
}

func (l *layout) clear(match func(name string) bool) error {
	names, err := l.b.List()
	if err != nil {
		return fmt.Errorf("ckpt: clear: %w", err)
	}
	for _, name := range names {
		if !match(name) {
			continue
		}
		if err := l.b.Delete(name); err != nil {
			return fmt.Errorf("ckpt: clear: %w", err)
		}
	}
	return nil
}

// linkSeq parses name as exactly prefix + decimal N + ".ckpt".
func linkSeq(name, prefix string) (uint64, bool) {
	rest, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return 0, false
	}
	digits, ok := strings.CutSuffix(rest, ".ckpt")
	if !ok || !allDigits(digits) {
		return 0, false
	}
	var seq uint64
	for _, c := range digits {
		seq = seq*10 + uint64(c-'0')
	}
	return seq, true
}

func allDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// The ledger is a marker blob that exists while a run is in progress.

// LedgerStart leaves the marker of a run that never finished where it is: it
// already says what this run would write, which spares every restart a
// durable Put.
func (l *layout) LedgerStart(app string) error {
	if crashed, err := l.Crashed(app); crashed || err != nil {
		return err
	}
	return l.putBytes(ledgerName(app), []byte("running\n"))
}

func (l *layout) LedgerFinish(app string) error {
	return l.b.Delete(ledgerName(app))
}

func (l *layout) Crashed(app string) (bool, error) {
	r, err := l.b.Open(ledgerName(app))
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("ckpt: ledger: %w", err)
	}
	return true, r.Close()
}

// A chunk is a cas-<key>.chunk blob with a cas-<key>.ref sidecar holding
// its decimal reference count; a chunk without a sidecar is a half-finished
// put and counts as absent.

func (l *layout) readRef(key string) (int64, error) {
	r, err := l.b.Open(refName(key))
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("ckpt: chunk ref: %w", err)
	}
	defer r.Close()
	var n int64
	if _, err := fmt.Fscanf(r, "%d", &n); err != nil || n < 1 {
		return 0, fmt.Errorf("ckpt: chunk ref %s is corrupt", refName(key))
	}
	return n, nil
}

func (l *layout) writeRef(key string, n int64) error {
	return l.putBytes(refName(key), fmt.Appendf(nil, "%d\n", n))
}

// PutChunk writes the payload before the reference sidecar: a crash in
// between leaves a chunk that a later put of the same content simply
// rewrites (content-addressed writes are idempotent), never a reference
// without data.
func (l *layout) PutChunk(key string, payload []byte) (bool, error) {
	fail, tear := l.hook(OpPutChunk)
	if fail != nil {
		return false, fail
	}
	l.casMu.Lock()
	defer l.casMu.Unlock()
	refs, err := l.readRef(key)
	if err != nil {
		return false, err
	}
	if refs == 0 {
		if tear {
			payload = payload[:len(payload)/2]
		}
		if err := l.putBytes(chunkName(key), payload); err != nil {
			return false, err
		}
	}
	return refs > 0, l.writeRef(key, refs+1)
}

func (l *layout) GetChunk(key string) ([]byte, bool, error) {
	if fail, _ := l.hook(OpGetChunk); fail != nil {
		return nil, false, fail
	}
	r, err := l.b.Open(chunkName(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("ckpt: chunk read: %w", err)
	}
	defer r.Close()
	payload, err := io.ReadAll(r)
	if err != nil {
		return nil, false, fmt.Errorf("ckpt: chunk read: %w", err)
	}
	return payload, true, nil
}

// ReleaseChunks keeps going past a chunk it cannot release and reports the
// first error: the others must not leak because one sidecar is unreadable.
func (l *layout) ReleaseChunks(keys []string) error {
	if fail, _ := l.hook(OpReleaseChunks); fail != nil {
		return fail
	}
	l.casMu.Lock()
	defer l.casMu.Unlock()
	var first error
	for _, key := range keys {
		refs, err := l.readRef(key)
		if err == nil && refs > 1 {
			err = l.writeRef(key, refs-1)
		} else if err == nil {
			// Last reference (or a half-put chunk with no sidecar): remove
			// the sidecar first, so a crash in between leaves an absent
			// chunk, not a reference without data.
			if err = l.b.Delete(refName(key)); err == nil {
				err = l.b.Delete(chunkName(key))
			}
		}
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}
