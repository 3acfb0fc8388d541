// Package clitest tests a command end to end through its own test binary:
// TestMain hands control to Main, and Run re-executes the binary with an
// environment marker that makes Main call the command's main instead of the
// tests. No separate `go build` step is needed, and the command runs with its
// real flag parsing, exit codes, stdout and stderr.
package clitest

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// envMain marks a re-executed child: the test binary runs the command's main.
const envMain = "CLITEST_RUN_MAIN"

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// Main is a command package's TestMain body. In a child started by Run it
// runs main under the command's name with a fresh flag set (so no test flag
// leaks into the command's -help) and exits 0 if main returns; otherwise it
// runs the package's tests.
func Main(m *testing.M, name string, main func()) {
	if os.Getenv(envMain) == "" {
		os.Exit(m.Run())
	}
	os.Args[0] = name
	flag.CommandLine = flag.NewFlagSet(name, flag.ExitOnError)
	main()
	os.Exit(0)
}

// Run executes the command with args and returns its stdout, stderr, and
// exit status.
func Run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), envMain+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatalf("%v: %v", args, err)
	}
	return out.String(), errb.String(), code
}

// Golden compares got with testdata/<name>.golden; with -update it rewrites
// the file instead.
func Golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	line := func(s []string) string {
		if i < len(s) {
			return strconv.Quote(s[i])
		}
		return "<end of output>"
	}
	t.Errorf("output differs from %s at line %d (rerun with -update if the change is intended)\n got: %s\nwant: %s",
		path, i+1, line(g), line(w))
}

// HelpGolden pins the command's -help output (every flag with its default
// and help text) to testdata/help.golden.
func HelpGolden(t *testing.T) {
	t.Helper()
	_, stderr, code := Run(t, "-help")
	if code != 0 {
		t.Fatalf("-help: exit %d", code)
	}
	Golden(t, "help", stderr)
}

// UsageError asserts that args make the command exit 2, the usage-error
// status.
func UsageError(t *testing.T, args ...string) {
	t.Helper()
	_, stderr, code := Run(t, args...)
	if code != 2 {
		t.Errorf("%v: exit %d, want 2 (stderr %q)", args, code, stderr)
	}
}
