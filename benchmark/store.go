package main

import (
	"bytes"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"ppar/pp"
)

// timedStore decorates a pp.Store with a span and a call count per method.
// It embeds the interface and overrides only the methods it times, so a
// change to the set of Store methods does not break the build: whatever is
// not overridden passes straight through.
//
// prefix names the layer the spans belong to: "ckpt" for the store the
// engine talks to, "ckpt.inner" for the backend below a DedupStore.
type timedStore struct {
	pp.Store
	rec    *runRec
	prefix string
	// onMaster: calls arrive on the master line while it sits in a safe
	// point (synchronous saves), so the open safe-point span is their parent.
	onMaster bool
	// probe, when set, keeps what the serial-layer probes replay afterwards
	// and adds an in-situ encode to the first saves of the run.
	probe *storeProbe

	calls, errs, insitu atomic.Int64
}

// storeProbe is the store decorator's memory of what passed through it
// during a traced pass; the serial-layer probes replay it afterwards.
type storeProbe struct {
	mu sync.Mutex
	// base is the encoded container of the first full snapshot saved.
	base []byte
	// deltaEncodeNs are the in-situ encode times of every delta saved.
	deltaEncodeNs []int64
}

// journalApp is the name the fleet supervisor saves its journal under: a
// store call like any other, but not checkpoint state worth probing.
const journalApp = "fleet-journal"

// insituPerRun is how many full saves of one run get the in-situ encode.
const insituPerRun = 2

func (s *timedStore) done(name string, start time.Time, err error) {
	s.calls.Add(1)
	if err != nil {
		s.errs.Add(1)
	}
	s.rec.offTrack(s.prefix+"."+name, trackStore, start, time.Now(), s.onMaster)
}

func (s *timedStore) Save(snap *pp.Snapshot) error {
	if p := s.probe; p != nil && snap.App != journalApp {
		p.mu.Lock()
		first := p.base == nil
		p.mu.Unlock()
		if s.insitu.Add(1) <= insituPerRun {
			// An in-situ encode of the same snapshot splits the save span
			// into serialisation and persistence. It is a span of its own,
			// so the safe point's self time does not absorb it, and only the
			// first few saves of a run pay for it.
			var buf bytes.Buffer
			var w io.Writer = io.Discard
			if first {
				buf.Grow(snap.DataBytes() + 4096)
				w = &buf
			}
			t := time.Now()
			err := snap.Encode(w)
			e := time.Now()
			s.rec.offTrack("bench.insitu_encode", trackStore, t, e, s.onMaster)
			if err == nil && first {
				p.mu.Lock()
				p.base = buf.Bytes()
				p.mu.Unlock()
			}
		}
	}
	t := time.Now()
	err := s.Store.Save(snap)
	s.done("save", t, err)
	return err
}

func (s *timedStore) SaveDelta(d *pp.Delta) error {
	if p := s.probe; p != nil {
		t := time.Now()
		err := d.Encode(io.Discard)
		e := time.Now()
		s.rec.offTrack("bench.insitu_encode", trackStore, t, e, s.onMaster)
		if err == nil {
			p.mu.Lock()
			p.deltaEncodeNs = append(p.deltaEncodeNs, int64(e.Sub(t)))
			p.mu.Unlock()
		}
	}
	t := time.Now()
	err := s.Store.SaveDelta(d)
	s.done("save_delta", t, err)
	return err
}

func (s *timedStore) SaveShardDelta(d *pp.Delta, rank int) error {
	t := time.Now()
	err := s.Store.SaveShardDelta(d, rank)
	s.done("save_shard_delta", t, err)
	return err
}

func (s *timedStore) SaveManifest(m *pp.Manifest) error {
	t := time.Now()
	err := s.Store.SaveManifest(m)
	s.done("save_manifest", t, err)
	return err
}

func (s *timedStore) PutChunk(key string, payload []byte) (bool, error) {
	t := time.Now()
	dup, err := s.Store.PutChunk(key, payload)
	s.done("put_chunk", t, err)
	return dup, err
}

func (s *timedStore) Load(app string) (*pp.Snapshot, bool, error) {
	t := time.Now()
	snap, found, err := s.Store.Load(app)
	s.done("load", t, err)
	return snap, found, err
}

func (s *timedStore) LoadChain(app string) (*pp.Snapshot, []*pp.Delta, bool, error) {
	t := time.Now()
	snap, ds, found, err := s.Store.LoadChain(app)
	s.done("load", t, err)
	return snap, ds, found, err
}

func (s *timedStore) LoadManifest(app string) (*pp.Manifest, bool, error) {
	t := time.Now()
	m, found, err := s.Store.LoadManifest(app)
	s.done("load", t, err)
	return m, found, err
}

func (s *timedStore) LoadShardDelta(app string, rank int, seq uint64) (*pp.Delta, bool, error) {
	t := time.Now()
	d, found, err := s.Store.LoadShardDelta(app, rank, seq)
	s.done("load", t, err)
	return d, found, err
}

func (s *timedStore) LedgerStart(app string) error {
	t := time.Now()
	err := s.Store.LedgerStart(app)
	s.done("ledger", t, err)
	return err
}

func (s *timedStore) LedgerFinish(app string) error {
	t := time.Now()
	err := s.Store.LedgerFinish(app)
	s.done("ledger", t, err)
	return err
}

func (s *timedStore) Crashed(app string) (bool, error) {
	t := time.Now()
	c, err := s.Store.Crashed(app)
	s.done("ledger", t, err)
	return c, err
}
