package ckpt

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// The contract every backend owes the layout, checked the same way over
// each of them.
func TestBlobBackends(t *testing.T) {
	dir := t.TempDir()
	// A save killed mid-flight leaves only its temp file behind: it must
	// never be listed, and the blobs beside it must stay readable.
	if err := os.WriteFile(filepath.Join(dir, tempPrefix+"123456"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	backends := map[string]blobs{
		"fs":    dirBlobs(dir),
		"mem":   newMemBlobs(),
		"fault": NewFault().b, // nothing armed
	}
	for name, b := range backends {
		t.Run(name, func(t *testing.T) {
			content := func(blob string) string {
				t.Helper()
				r, err := b.Open(blob)
				if err != nil {
					t.Fatalf("Open(%q): %v", blob, err)
				}
				defer r.Close()
				got, err := io.ReadAll(r)
				if err != nil {
					t.Fatal(err)
				}
				return string(got)
			}
			listed := func() []string {
				t.Helper()
				names, err := b.List()
				if err != nil {
					t.Fatal(err)
				}
				sort.Strings(names)
				return names
			}
			put := func(blob, s string) error {
				return b.Put(blob, func(w io.Writer) error {
					_, err := io.WriteString(w, s)
					return err
				})
			}

			if _, err := b.Open("app.ckpt"); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("Open of a missing blob: %v, want fs.ErrNotExist", err)
			}
			if len(listed()) != 0 {
				t.Fatalf("empty backend lists %v", listed())
			}
			if err := put("app.ckpt", "one"); err != nil {
				t.Fatal(err)
			}

			// A replacing Put is invisible until it completes.
			err := b.Put("app.ckpt", func(w io.Writer) error {
				if _, err := io.WriteString(w, "tw"); err != nil {
					return err
				}
				if got := content("app.ckpt"); got != "one" {
					t.Errorf("blob reads %q while its replacement is half written", got)
				}
				if got := listed(); !reflect.DeepEqual(got, []string{"app.ckpt"}) {
					t.Errorf("List during a Put: %v", got)
				}
				_, err := io.WriteString(w, "o")
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := content("app.ckpt"); got != "two" {
				t.Fatalf("blob reads %q after being replaced with %q", got, "two")
			}

			// A Put whose writer fails changes nothing and leaves nothing.
			boom := errors.New("boom")
			err = b.Put("app.ckpt", func(w io.Writer) error {
				io.WriteString(w, "thr")
				return boom
			})
			if !errors.Is(err, boom) {
				t.Fatalf("failed Put returned %v", err)
			}
			if got := content("app.ckpt"); got != "two" {
				t.Fatalf("blob reads %q after a failed Put", got)
			}

			for _, blob := range []string{"app.run", "cas-k.chunk", "app.ckpt.d1.ckpt"} {
				if err := put(blob, blob); err != nil {
					t.Fatal(err)
				}
			}
			want := []string{"app.ckpt", "app.ckpt.d1.ckpt", "app.run", "cas-k.chunk"}
			if got := listed(); !reflect.DeepEqual(got, want) {
				t.Fatalf("List: %v, want %v", got, want)
			}

			for i := 0; i < 2; i++ { // idempotent
				if err := b.Delete("app.run"); err != nil {
					t.Fatalf("Delete #%d: %v", i+1, err)
				}
			}
			if _, err := b.Open("app.run"); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("Open after Delete: %v, want fs.ErrNotExist", err)
			}
			if got := listed(); !reflect.DeepEqual(got, []string{want[0], want[1], want[3]}) {
				t.Fatalf("List after Delete: %v", got)
			}
		})
	}
}
