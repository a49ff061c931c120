package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"rsse/internal/prf"
)

// buildServer compiles the rsse-server binary once per test run and
// returns its path. Exec-level tests are the only way to prove the
// profile-finalization contract: the bug class being guarded against
// is an exit path that skips pprof.StopCPUProfile, which no in-process
// test can observe.
var buildServer = sync.OnceValues(func() (string, error) {
	bin := filepath.Join(os.TempDir(), "rsse-server-under-test")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		return "", &buildError{out: string(out), err: err}
	}
	return bin, nil
})

type buildError struct {
	out string
	err error
}

func (e *buildError) Error() string { return e.err.Error() + "\n" + e.out }

// checkProfile fails the test unless path holds a finalized CPU
// profile: pprof output is a gzip stream, and an unfinalized profile
// is an empty (or truncated) file that gzip refuses.
func checkProfile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("profile not written: %v", err)
	}
	if len(raw) == 0 {
		t.Fatalf("profile %s is empty: CPU profile was never finalized", path)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("profile %s is not a gzip stream (%v): finalization was skipped mid-write", path, err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("profile %s truncated: %v", path, err)
	}
	if len(body) == 0 {
		t.Fatalf("profile %s decodes to nothing", path)
	}
}

// lockedBuilder is a strings.Builder that the test may poll while the
// os/exec goroutine copying the child's stderr writes into it.
type lockedBuilder struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuilder) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuilder) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// startServer launches the built binary with a fresh writable store (no
// index file needed) and a CPU profile, waits until it is serving, and
// returns the running command, the profile path and its stderr.
func startServer(t *testing.T, extra ...string) (*exec.Cmd, string, *lockedBuilder) {
	t.Helper()
	bin, err := buildServer()
	if err != nil {
		t.Fatalf("building rsse-server: %v", err)
	}
	dir := t.TempDir()
	prof := filepath.Join(dir, "cpu.prof")
	args := append([]string{
		"-writable", filepath.Join(dir, "store"),
		"-listen", "127.0.0.1:0",
		"-cpuprofile", prof,
	}, extra...)
	cmd := exec.Command(bin, args...)
	var stderr lockedBuilder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting rsse-server: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(stderr.String(), "serving") {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("server never reported serving; stderr:\n%s", stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	return cmd, prof, &stderr
}

// TestCPUProfileFinalizedOnSignal proves SIGTERM and SIGINT shutdowns
// both leave a complete, parseable CPU profile behind.
func TestCPUProfileFinalizedOnSignal(t *testing.T) {
	if testing.Short() {
		t.Skip("exec test")
	}
	for _, sig := range []syscall.Signal{syscall.SIGTERM, syscall.SIGINT} {
		t.Run(sig.String(), func(t *testing.T) {
			cmd, prof, _ := startServer(t)
			if err := cmd.Process.Signal(sig); err != nil {
				t.Fatalf("signaling: %v", err)
			}
			if err := cmd.Wait(); err != nil {
				t.Fatalf("server exited with error: %v", err)
			}
			checkProfile(t, prof)
		})
	}
}

// TestServingLogNamesPRFPath: the serving line tells an operator which
// code computes suite 2's F on this box.
func TestServingLogNamesPRFPath(t *testing.T) {
	if testing.Short() {
		t.Skip("exec test")
	}
	cmd, _, stderr := startServer(t)
	defer func() {
		cmd.Process.Signal(syscall.SIGTERM)
		cmd.Wait()
	}()
	var serving string
	for _, line := range strings.Split(stderr.String(), "\n") {
		if strings.Contains(line, "msg=serving") {
			serving = line
		}
	}
	if want := "prf_f=" + prf.FImpl(); !strings.Contains(serving, want) {
		t.Errorf("serving line %q lacks %s", serving, want)
	}
}

// TestCPUProfileFinalizedOnFatal proves the error-exit path (here: an
// unloadable index file) finalizes the profile too — the path the old
// closure-based finalizer missed entirely.
func TestCPUProfileFinalizedOnFatal(t *testing.T) {
	if testing.Short() {
		t.Skip("exec test")
	}
	bin, err := buildServer()
	if err != nil {
		t.Fatalf("building rsse-server: %v", err)
	}
	dir := t.TempDir()
	prof := filepath.Join(dir, "cpu.prof")
	bogus := filepath.Join(dir, "bogus.idx")
	if err := os.WriteFile(bogus, []byte("not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-index", bogus, "-cpuprofile", prof)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("server accepted a bogus index; output:\n%s", out)
	}
	checkProfile(t, prof)
}
