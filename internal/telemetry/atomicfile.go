package telemetry

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes a file by streaming into a temp file in the
// target's directory and renaming it over path, so readers (and post-mortem
// inspection after SIGINT or a watchdog-degraded run) only ever observe the
// previous complete file or the new complete file — never a truncated one.
// On any error the temp file is removed and path is left untouched. The CLI
// harness's artifacts, the flight recorder's post-mortem dump, the runner's
// persistent cache entries and saved surrogate models are written this way.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".p10-atomic-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := write(f); err != nil {
		return fail(err)
	}
	// CreateTemp opens 0600; published artifacts keep the conventional 0644
	// (subject to umask-free chmod, since rename preserves the temp mode).
	if err := f.Chmod(0o644); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
