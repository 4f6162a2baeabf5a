package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs the CLI with stdout/stderr redirected to temp files and
// returns the exit code plus both streams.
func capture(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	dir := t.TempDir()
	mk := func(name string) *os.File {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	stdout, stderr := mk("stdout"), mk("stderr")
	code := run(args, stdout, stderr)
	stdout.Close()
	stderr.Close()
	rd := func(name string) string {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	return code, rd("stdout"), rd("stderr")
}

func writeSrc(t *testing.T, name, src string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const safeSrc = `void f(int n, double a[]) {
    for (int i = 0; i < n; i++) { a[i] = a[i] + 1.0; }
}`

const unsafeSrc = `void f(int n, double a[]) {
    for (int i = 1; i < n; i++) { a[i] = a[i - 1]; }
}`

func TestExitCodes(t *testing.T) {
	code, out, _ := capture(t, writeSrc(t, "safe.c", safeSrc))
	if code != 0 {
		t.Fatalf("safe file: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "[safe]") {
		t.Errorf("missing safe verdict line:\n%s", out)
	}

	code, out, errOut := capture(t, writeSrc(t, "unsafe.c", unsafeSrc))
	if code != 1 {
		t.Fatalf("unsafe file: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "[unsafe]") || !strings.Contains(errOut, "1 unsafe loop(s)") {
		t.Errorf("missing unsafe report:\nstdout %s\nstderr %s", out, errOut)
	}

	if code, _, _ := capture(t, filepath.Join(t.TempDir(), "missing.c")); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
	if code, _, _ := capture(t); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code, _, _ := capture(t, "-bogusflag"); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	// Every verdict runs the whole suite: there is no subset flag.
	if code, _, _ := capture(t, "-only", "structure", writeSrc(t, "rec.c", unsafeSrc)); code != 2 {
		t.Errorf("-only structure: exit %d, want 2", code)
	}
}

func TestList(t *testing.T) {
	code, out, _ := capture(t, "-list")
	if code != 0 {
		t.Fatalf("-list: exit %d", code)
	}
	for _, name := range []string{"structure", "dependence", "clauses", "purity", "alias"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list omits %q:\n%s", name, out)
		}
	}
}

// TestWorkerCountInvariance pins the acceptance criterion: the JSON output
// over a directory is byte-identical for every worker count.
func TestWorkerCountInvariance(t *testing.T) {
	dir := t.TempDir()
	srcs := map[string]string{
		"a_safe.c":   safeSrc,
		"b_unsafe.c": unsafeSrc,
		"c_while.c":  `void g(int n) { int i = 0; while (i < n) { i++; } }`,
		"d_extern.c": `void h(int n, double a[]) { for (int i = 0; i < n; i++) a[i] = ext(i); }`,
	}
	for name, src := range srcs {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var first string
	for _, w := range []int{1, 2, 4, 8} {
		code, out, _ := capture(t, "-json", "-workers", itoa(w), dir)
		if code != 1 {
			t.Fatalf("workers=%d: exit %d", w, code)
		}
		if first == "" {
			first = out
		} else if out != first {
			t.Fatalf("workers=%d output differs:\n%s\n--- vs ---\n%s", w, out, first)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
