package durable

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBytes(path string, perm os.FileMode, data string) error {
	return WriteFile(path, perm, func(f *os.File) error {
		_, err := f.WriteString(data)
		return err
	})
}

// noTemps fails the test if any temp file of WriteFile is left in dir.
func noTemps(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
}

func TestWriteFileReplacesContentAndMode(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := os.WriteFile(path, []byte("old bytes, longer than the new ones"), 0o600); err != nil {
		t.Fatal(err)
	}
	for _, perm := range []os.FileMode{0o644, 0o600} {
		if err := writeBytes(path, perm, "new"); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != "new" {
			t.Fatalf("content %q, err %v; want %q", got, err, "new")
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Mode().Perm() != perm {
			t.Errorf("mode %v, want %v", st.Mode().Perm(), perm)
		}
	}
	noTemps(t, dir)
}

func TestWriteFileFillErrorKeepsOldBytes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFile(path, 0o644, func(f *os.File) error {
		f.WriteString("half of the new cont")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err %v, want %v", err, boom)
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Errorf("content %q after a failed fill, want the old bytes", got)
	}
	noTemps(t, dir)
}

func TestWriteFileRenameOntoDirectoryLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "taken")
	if err := os.Mkdir(path, 0o777); err != nil {
		t.Fatal(err)
	}
	if err := writeBytes(path, 0o644, "new"); err == nil {
		t.Fatal("rename over a directory succeeded")
	}
	if st, err := os.Stat(path); err != nil || !st.IsDir() {
		t.Errorf("destination directory disturbed: %v, err %v", st, err)
	}
	noTemps(t, dir)
}

// TestWriteFileStepFailures fails each step in turn through FailHook:
// WriteFile must return the error, leave no temp file, and leave the
// destination holding the old bytes or the new, never a mix — the old
// ones for every step before the rename.
func TestWriteFileStepFailures(t *testing.T) {
	for _, s := range []Step{StepFill, StepSync, StepRename, StepDirSync} {
		t.Run(string(s), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "out.json")
			if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
				t.Fatal(err)
			}
			injected := errors.New("injected " + string(s))
			FailHook = func(at Step) error {
				if at == s {
					return injected
				}
				return nil
			}
			defer func() { FailHook = nil }()
			if err := writeBytes(path, 0o644, "new"); !errors.Is(err, injected) {
				t.Fatalf("err %v, want %v", err, injected)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want := "old"
			if s == StepDirSync {
				want = "new" // the rename already happened
			}
			if string(got) != want {
				t.Errorf("content %q, want %q", got, want)
			}
			noTemps(t, dir)
		})
	}
}
