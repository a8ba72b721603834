// Package durable is the one way this repository replaces a file: the
// new content is built in a temporary file beside the destination,
// fsync'd, renamed over it, and the directory is fsync'd, so a crash at
// any point leaves either the old content or the new under the final
// name, never a torn mix, and a successful return means the new
// content survives a power cut.
package durable

import (
	"os"
	"path/filepath"
)

// Step names one stage of WriteFile, as passed to FailHook.
type Step string

// The stages of WriteFile, in order.
const (
	StepFill    Step = "fill"
	StepSync    Step = "sync"
	StepRename  Step = "rename"
	StepDirSync Step = "dirsync"
)

// FailHook, when non-nil, is called before each step of every WriteFile;
// a non-nil return fails that step as if the system call had. It is the
// crash-point seam for tests and is nil in production.
var FailHook func(Step) error

func step(s Step, fn func() error) error {
	if FailHook != nil {
		if err := FailHook(s); err != nil {
			return err
		}
	}
	return fn()
}

// WriteFile atomically replaces path with what fill writes into a fresh
// temporary file in the same directory. The file gets mode perm (the
// umask does not apply). The steps are: create the temp file, fill it,
// chmod, fsync, close, rename over path, fsync the directory. On any
// failure before the rename the temp file is removed and path is
// untouched; a failed directory fsync is returned after the rename, when
// path already holds the new content but may not survive a crash.
func WriteFile(path string, perm os.FileMode, fill func(*os.File) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	err = step(StepFill, func() error { return fill(tmp) })
	if err == nil {
		err = tmp.Chmod(perm)
	}
	if err == nil {
		err = step(StepSync, tmp.Sync)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := step(StepRename, func() error { return os.Rename(tmp.Name(), path) }); err != nil {
		return err
	}
	return step(StepDirSync, func() error {
		d, err := os.Open(dir)
		if err != nil {
			return err
		}
		err = d.Sync()
		if cerr := d.Close(); err == nil {
			err = cerr
		}
		return err
	})
}
