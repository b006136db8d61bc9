package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"pmpr/internal/events"
	"pmpr/internal/gen"
)

// TestSIGINTPartialProgress drives the built binary end to end: start a
// long postmortem run, interrupt it, and require the cooperative
// shutdown contract — exit code 130 and the partial-progress line.
func TestSIGINTPartialProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("binary e2e test skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "pmrank")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	d, ok := gen.Get("wikitalk")
	if !ok {
		t.Fatal("wikitalk profile missing")
	}
	l, err := d.Generate(0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	evPath := filepath.Join(dir, "events.ev")
	f, err := os.Create(evPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := events.WriteText(f, l); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Thousands of tiny windows: the run takes many seconds, and a
	// cancel lands at a window boundary almost immediately.
	cmd := exec.Command(bin, "-in", evPath, "-delta-days", "90", "-slide", "21600",
		"-mode", "nested", "-workers", "4")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(1500 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatalf("signal: %v", err)
	}
	err = cmd.Wait()
	if err == nil {
		t.Skipf("run finished before the interrupt; output:\n%s", out.String())
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("wait: %v\n%s", err, out.String())
	}
	if code := ee.ExitCode(); code != 130 {
		t.Fatalf("exit code = %d, want 130\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "partial progress:") {
		t.Fatalf("missing partial-progress message:\n%s", out.String())
	}
}
