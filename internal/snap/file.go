package snap

import (
	"io"
	"os"
	"path/filepath"
)

// TempSuffix marks an in-progress WriteFileAtomic target. A file with
// this suffix is truncated by construction and never restored from.
const TempSuffix = ".tmp"

// WriteFileAtomic replaces the file at path with what write produces:
// the bytes go to path+TempSuffix, are fsynced and renamed over path,
// then the parent directory is fsynced so the new name itself survives
// a crash. A failure before the rename leaves the previous file at
// path untouched and no temp file behind.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	tmp := path + TempSuffix
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	return err
}
