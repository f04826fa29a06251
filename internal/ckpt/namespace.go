package ckpt

import (
	"fmt"
	"strings"

	"ppar/internal/serial"
)

// NamespaceSep separates the namespace prefix from the application name in
// the keys a Namespaced store hands its inner store. "~" is legal in file
// names on every supported platform and never appears in the path-free app
// names the engine generates, so prefixed keys stay flat (no directories
// are implied on the filesystem backend) and distinct namespaces can never
// collide as long as prefixes themselves do not contain the separator.
const NamespaceSep = "~"

// Namespaced multiplexes one inner Store between many applications (or
// tenants): every application name is rewritten to "<prefix>~<app>" on the
// way in and the prefix is stripped from loaded artifacts on the way out.
// Because the inner store's exact-name ownership rules apply to the full
// prefixed key, engines running under different prefixes can never see —
// or Clear — each other's checkpoints, even when one prefix is a prefix of
// another ("t1" vs "t10"): the separator makes "t1~app" and "t10~app"
// unrelated names.
//
// The snapshot/delta/manifest App fields are rewritten on shallow copies,
// never in place, so a caller's artifact (possibly shared with an
// asynchronous writer) is not mutated by saving it through the wrapper.
//
// Chunk keys pass through UNPREFIXED — by design: a chunk is immutable
// content named by its own digest, so two tenants checkpointing identical
// state share one stored copy. Isolation is preserved by the reference
// counts: a tenant's artifacts only ever release the references they took,
// so one tenant clearing its checkpoints can never free a chunk another
// tenant still references. (Clear itself never touches chunks; only
// ReleaseChunks does.)
type Namespaced struct {
	Store
	prefix string // includes the trailing separator
}

// NewNamespaced wraps inner so every application name is keyed under
// prefix. The prefix must be non-empty and must not contain the separator.
func NewNamespaced(prefix string, inner Store) (*Namespaced, error) {
	if inner == nil {
		return nil, fmt.Errorf("ckpt: namespaced store needs an inner store")
	}
	if prefix == "" {
		return nil, fmt.Errorf("ckpt: empty namespace prefix")
	}
	if strings.Contains(prefix, NamespaceSep) {
		return nil, fmt.Errorf("ckpt: namespace prefix %q contains the separator %q", prefix, NamespaceSep)
	}
	return &Namespaced{Store: inner, prefix: prefix + NamespaceSep}, nil
}

func (s *Namespaced) key(app string) string { return s.prefix + app }

func (s *Namespaced) wrapSnap(snap *serial.Snapshot) *serial.Snapshot {
	c := *snap
	c.App = s.key(snap.App)
	return &c
}

func (s *Namespaced) unwrapSnap(snap *serial.Snapshot) *serial.Snapshot {
	if snap == nil {
		return nil
	}
	c := *snap
	c.App = strings.TrimPrefix(snap.App, s.prefix)
	return &c
}

func (s *Namespaced) wrapDelta(d *serial.Delta) *serial.Delta {
	c := *d
	c.App = s.key(d.App)
	return &c
}

func (s *Namespaced) unwrapDelta(d *serial.Delta) *serial.Delta {
	if d == nil {
		return nil
	}
	c := *d
	c.App = strings.TrimPrefix(d.App, s.prefix)
	return &c
}

// Save implements Store.
func (s *Namespaced) Save(snap *serial.Snapshot) error {
	return s.Store.Save(s.wrapSnap(snap))
}

// SaveDelta implements Store.
func (s *Namespaced) SaveDelta(d *serial.Delta) error {
	return s.Store.SaveDelta(s.wrapDelta(d))
}

// Load implements Store.
func (s *Namespaced) Load(app string) (*serial.Snapshot, bool, error) {
	snap, found, err := s.Store.Load(s.key(app))
	return s.unwrapSnap(snap), found, err
}

// LoadChain implements Store.
func (s *Namespaced) LoadChain(app string) (*serial.Snapshot, []*serial.Delta, bool, error) {
	base, deltas, found, err := s.Store.LoadChain(s.key(app))
	out := deltas
	if len(deltas) > 0 {
		out = make([]*serial.Delta, len(deltas))
		for i, d := range deltas {
			out[i] = s.unwrapDelta(d)
		}
	}
	return s.unwrapSnap(base), out, found, err
}

// SaveShardDelta implements Store.
func (s *Namespaced) SaveShardDelta(d *serial.Delta, rank int) error {
	return s.Store.SaveShardDelta(s.wrapDelta(d), rank)
}

// LoadShardDelta implements Store.
func (s *Namespaced) LoadShardDelta(app string, rank int, seq uint64) (*serial.Delta, bool, error) {
	d, found, err := s.Store.LoadShardDelta(s.key(app), rank, seq)
	return s.unwrapDelta(d), found, err
}

// ClearShardDeltas implements Store.
func (s *Namespaced) ClearShardDeltas(app string, rank int, below uint64) error {
	return s.Store.ClearShardDeltas(s.key(app), rank, below)
}

// SaveManifest implements Store.
func (s *Namespaced) SaveManifest(m *serial.Manifest) error {
	c := *m
	c.App = s.key(m.App)
	return s.Store.SaveManifest(&c)
}

// LoadManifest implements Store.
func (s *Namespaced) LoadManifest(app string) (*serial.Manifest, bool, error) {
	m, found, err := s.Store.LoadManifest(s.key(app))
	if m != nil {
		c := *m
		c.App = strings.TrimPrefix(m.App, s.prefix)
		m = &c
	}
	return m, found, err
}

// Clear implements Store.
func (s *Namespaced) Clear(app string) error { return s.Store.Clear(s.key(app)) }

// ClearDeltas implements Store.
func (s *Namespaced) ClearDeltas(app string) error { return s.Store.ClearDeltas(s.key(app)) }

// LedgerStart implements Store.
func (s *Namespaced) LedgerStart(app string) error { return s.Store.LedgerStart(s.key(app)) }

// LedgerFinish implements Store.
func (s *Namespaced) LedgerFinish(app string) error { return s.Store.LedgerFinish(s.key(app)) }

// Crashed implements Store.
func (s *Namespaced) Crashed(app string) (bool, error) { return s.Store.Crashed(s.key(app)) }
