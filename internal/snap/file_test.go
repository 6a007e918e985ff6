package snap

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileAtomic: a successful write replaces the file; a writer
// that fails midway leaves the previous checkpoint byte-identical and
// no temp file behind.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.snap")
	put := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
	}
	if err := WriteFileAtomic(path, put("first")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, put("second")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "torn")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failing writer: got %v, want %v", err, boom)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "second" {
		t.Errorf("after failed write: %q, %v; want the previous checkpoint %q", got, err, "second")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "ck.snap" {
		t.Errorf("directory holds %v, want only ck.snap", ents)
	}
}
