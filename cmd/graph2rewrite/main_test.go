package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graph2par/internal/cli"
)

const loopSrc = `void f(int n, double a[]) {
    for (int i = 0; i < n; i++) { a[i] = a[i] + 1.0; }
}
`

// runCLI runs the command with stdout and stderr in temp files and
// returns the exit code and stderr.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	dir := t.TempDir()
	stdout, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	stderr, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	code := run(args, stdout, stderr)
	stderr.Close()
	msg, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(msg)
}

// writeInputs writes loopSrc under each relative path in a fresh
// directory and returns the directory and the full paths.
func writeInputs(t *testing.T, rel ...string) (string, []string) {
	t.Helper()
	dir := t.TempDir()
	var paths []string
	for _, r := range rel {
		p := filepath.Join(dir, r)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(loopSrc), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	return dir, paths
}

// TestOutRefusesSharedBaseNames: -out names each output by its input's
// base name, so two inputs sharing one would leave a single file, the
// second input's. The run must fail before it writes anything.
func TestOutRefusesSharedBaseNames(t *testing.T) {
	dir, paths := writeInputs(t, "a/x.c", "b/x.c")
	out := filepath.Join(dir, "out")
	code, stderr := runCLI(t, append([]string{"-out", out}, paths...)...)
	if code != cli.ExitError {
		t.Errorf("exit %d, want %d", code, cli.ExitError)
	}
	if !strings.Contains(stderr, "share the base name x.c") {
		t.Errorf("stderr does not name the clash:\n%s", stderr)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("output directory exists after the refused run (stat: %v)", err)
	}

	// Distinct base names write one file each.
	dir, paths = writeInputs(t, "a/x.c", "b/y.c")
	out = filepath.Join(dir, "out")
	if code, stderr := runCLI(t, append([]string{"-out", out}, paths...)...); code != cli.ExitClean {
		t.Fatalf("exit %d, want %d:\n%s", code, cli.ExitClean, stderr)
	}
	for _, name := range []string{"x.c", "y.c"} {
		if _, err := os.Stat(filepath.Join(out, name)); err != nil {
			t.Errorf("output %s: %v", name, err)
		}
	}
}

// TestOnlyIsUnknownFlag: every rewrite is gated by the whole check
// suite, so there is no flag to narrow it.
func TestOnlyIsUnknownFlag(t *testing.T) {
	_, paths := writeInputs(t, "x.c")
	if code, _ := runCLI(t, append([]string{"-only", "structure"}, paths...)...); code != cli.ExitError {
		t.Errorf("-only structure: exit %d, want %d", code, cli.ExitError)
	}
}
