// Fixture for the ppstore analyzer: store write atomicity, exact-name
// deletion, the links-before-manifest / GC-after-commit wave protocol,
// and the put-before-save / release-after-clear chunk protocol.
package ppstore

import (
	"os"
	"path/filepath"
	"strings"
)

type Manifest struct{ SP uint64 }

type Delta struct{ Name string }

type Store interface {
	Save(name string, data []byte) error
	SaveShardDelta(d Delta) error
	SaveManifest(m Manifest) error
	Clear(app string) error
	ClearShardDeltas(app string) error
	PutChunk(key string, payload []byte) (bool, error)
	ReleaseChunks(keys []string) error
}

func encode(m Manifest) []byte { return nil }

// BadFS breaks every write contract a store has.
type BadFS struct{ dir string }

func (s *BadFS) SaveManifest(m Manifest) error {
	return os.WriteFile(filepath.Join(s.dir, "manifest.ppm"), encode(m), 0o644) // want "temp file and rename"
}

func (s *BadFS) Save(name string, data []byte) error {
	f, err := os.Create(filepath.Join(s.dir, name)) // want "temp file and rename"
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(data)
	return err
}

func (s *BadFS) Clear(app string) error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), app) { // want "prefix matching"
			_ = os.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
	return nil
}

func (s *BadFS) PutChunk(key string, payload []byte) (bool, error) {
	return false, os.WriteFile(filepath.Join(s.dir, "cas-"+key+".chunk"), payload, 0o644) // want "temp file and rename"
}

// badBlobs is a blob backend whose Put writes under the committed name.
type badBlobs struct{ dir string }

func (b badBlobs) Put(name string, write func(f *os.File) error) error {
	f, err := os.Create(filepath.Join(b.dir, name)) // want "temp file and rename"
	if err != nil {
		return err
	}
	defer f.Close()
	return write(f)
}

// GoodFS follows the contracts: temp+rename saves, exact-name deletion.
type GoodFS struct{ dir string }

func (s *GoodFS) SaveManifest(m Manifest) error {
	tmp, err := os.CreateTemp(s.dir, "manifest-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(encode(m)); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(s.dir, "manifest.ppm"))
}

func (s *GoodFS) Clear(app string) error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		rest, ok := strings.CutPrefix(e.Name(), app+"-")
		if ok && strings.HasSuffix(rest, ".ppc") {
			_ = os.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
	return nil
}

// commitWave is the correct wave protocol: every link lands, then the
// manifest commits them, then the superseded chain is collected.
func commitWave(st Store, links []Delta, m Manifest) error {
	for _, d := range links {
		if err := st.SaveShardDelta(d); err != nil {
			return err
		}
	}
	if err := st.SaveManifest(m); err != nil {
		return err
	}
	return st.ClearShardDeltas("app")
}

// commitWrongOrder commits a manifest that references a link not yet on
// disk.
func commitWrongOrder(st Store, d Delta, m Manifest) error {
	if err := st.SaveManifest(m); err != nil {
		return err
	}
	return st.SaveShardDelta(d) // want "after SaveManifest"
}

// gcBeforeCommit collects the old chain before the new manifest commits,
// so a crash between the two loses the only restart point.
func gcBeforeCommit(st Store, m Manifest) error {
	if err := st.ClearShardDeltas("app"); err != nil { // want "GC before the committing"
		return err
	}
	return st.SaveManifest(m)
}

// swapDeduped is the correct chunk protocol: the new artifact's chunks
// land first, then the artifact commits, then the superseded artifact is
// cleared, and only then do its chunks' refcounts drop. A crash anywhere
// in the sequence leaks chunks but never dangles a reference.
func swapDeduped(st Store, keys, old []string, payload, blob []byte) error {
	for _, k := range keys {
		if _, err := st.PutChunk(k, payload); err != nil {
			return err
		}
	}
	if err := st.Save("app", blob); err != nil {
		return err
	}
	if err := st.Clear("app-old"); err != nil {
		return err
	}
	return st.ReleaseChunks(old)
}

// saveThenPut commits an artifact whose chunks are not durable yet: a
// crash before the PutChunk leaves a restart point that cannot load.
func saveThenPut(st Store, key string, payload, blob []byte) error {
	if err := st.Save("app", blob); err != nil {
		return err
	}
	_, err := st.PutChunk(key, payload) // want "must land before the artifact commits"
	return err
}

// releaseBeforeClear drops refcounts while an artifact still referencing
// the chunks survives a crash between the two calls.
func releaseBeforeClear(st Store, keys []string) error {
	if err := st.ReleaseChunks(keys); err != nil { // want "only after every referencing artifact"
		return err
	}
	return st.Clear("app")
}
