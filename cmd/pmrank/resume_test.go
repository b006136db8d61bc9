package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pmpr/internal/events"
	"pmpr/internal/gen"
)

// TestKillResumeBitIdentical drives the built binary through the crash
// story end to end: a checkpointing run is SIGKILLed mid-solve (no
// cooperative shutdown at all), then re-invoked with -resume. The
// resumed run must restore the completed windows instead of re-solving
// them and write a rank series byte-identical to an uninterrupted run.
func TestKillResumeBitIdentical(t *testing.T) {
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
	l, err := d.Generate(0.2, 1)
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

	// Serial solving keeps the window sequence deterministic; the window
	// count stays small enough for the reference run to finish quickly.
	args := []string{"-in", evPath, "-delta-days", "90", "-slide", "604800",
		"-mode", "app", "-workers", "1"}

	refOut := filepath.Join(dir, "ref.pmrs")
	ref := exec.Command(bin, append(args, "-out", refOut)...)
	if out, err := ref.CombinedOutput(); err != nil {
		t.Fatalf("reference run: %v\n%s", err, out)
	}

	// Checkpointing run, slowed via injected delays so the SIGKILL
	// reliably lands mid-solve. Poll for flushed window files, then
	// kill without any chance of cleanup.
	ckDir := filepath.Join(dir, "ck")
	cmd := exec.Command(bin, append(args, "-checkpoint-dir", ckDir)...)
	cmd.Env = append(os.Environ(), "PMPR_FAULTPOINTS=core.solve.window:delay:delay=50ms,count=0")
	var killed bytes.Buffer
	cmd.Stdout = &killed
	cmd.Stderr = &killed
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if m, _ := filepath.Glob(filepath.Join(ckDir, "window-*.pmck")); len(m) >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint files appeared; output so far:\n%s", killed.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	if err := cmd.Wait(); err == nil {
		t.Skipf("run finished before the kill; output:\n%s", killed.String())
	}

	// Resume and finish. The restored count must be every window the
	// killed run flushed (files only appear via atomic rename, so a
	// mid-write kill never leaves a partial record behind).
	flushed, err := filepath.Glob(filepath.Join(ckDir, "window-*.pmck"))
	if err != nil {
		t.Fatal(err)
	}
	resumedOut := filepath.Join(dir, "resumed.pmrs")
	res := exec.Command(bin, append(args, "-checkpoint-dir", ckDir, "-resume", "-out", resumedOut)...)
	out, err := res.CombinedOutput()
	if err != nil {
		t.Fatalf("resumed run: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "resuming from") {
		t.Fatalf("missing resume banner:\n%s", out)
	}
	var restored, total int
	for _, line := range strings.Split(string(out), "\n") {
		if i := strings.LastIndex(line, ": "); strings.Contains(line, "resuming from") && i >= 0 {
			if _, err := fmt.Sscanf(line[i+2:], "%d/%d windows restored", &restored, &total); err != nil {
				t.Fatalf("unparseable resume banner %q: %v", line, err)
			}
		}
	}
	if restored < len(flushed) {
		t.Fatalf("resumed run restored %d windows, but %d were flushed", restored, len(flushed))
	}
	if restored == 0 || restored >= total {
		t.Fatalf("restored %d/%d windows; the kill must land mid-run", restored, total)
	}

	want, err := os.ReadFile(refOut)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(resumedOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed rank series differs from the uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
}

// v2Manifest encodes a checkpoint manifest in codec version 2, which
// still carried the kernel name and the batch width.
func v2Manifest() []byte {
	b := []byte("PMCM")
	b = binary.LittleEndian.AppendUint32(b, 2)
	b = binary.LittleEndian.AppendUint64(b, 0)       // T0
	b = binary.LittleEndian.AppendUint64(b, 7776000) // Delta
	b = binary.LittleEndian.AppendUint64(b, 604800)  // Slide
	b = binary.LittleEndian.AppendUint32(b, 4)       // Count
	b = binary.LittleEndian.AppendUint32(b, 4)       // len("spmv")
	b = append(b, "spmv"...)
	b = binary.LittleEndian.AppendUint32(b, 1) // batch width
	b = binary.LittleEndian.AppendUint32(b, 1) // NumMultiWindows
	b = binary.LittleEndian.AppendUint64(b, 0) // PartitionHash
	b = binary.LittleEndian.AppendUint32(b, 4) // NumVertices
	b = append(b, 2)                           // flags: partial init
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(0.15))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(1e-10))
	b = binary.LittleEndian.AppendUint32(b, 100) // MaxIter
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
}

// TestResumeRejectsV2Checkpoint points -resume at a checkpoint
// directory written by codec version 2. The run must fail with an error
// that names the version and says to re-run without -resume, instead
// of panicking or silently re-solving into a fresh checkpoint.
func TestResumeRejectsV2Checkpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("binary e2e test skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "pmrank")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var evs []events.Event
	for i := int64(0); i < 40; i++ {
		evs = append(evs, events.Event{U: int32(i % 4), V: int32((i + 1) % 4), T: i * gen.Day})
	}
	l, err := events.NewLog(evs, 4)
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
	ckDir := filepath.Join(dir, "ck")
	if err := os.MkdirAll(ckDir, 0o755); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(ckDir, "manifest.pmck")
	old := v2Manifest()
	if err := os.WriteFile(manifest, old, 0o644); err != nil {
		t.Fatal(err)
	}

	outPath := filepath.Join(dir, "ranks.pmrs")
	cmd := exec.Command(bin, "-in", evPath, "-delta-days", "10", "-slide", "86400",
		"-checkpoint-dir", ckDir, "-resume", "-out", outPath)
	out, err := cmd.CombinedOutput()
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("-resume over a v2 checkpoint: err %v, want a nonzero exit; output:\n%s", err, out)
	}
	for _, want := range []string{"version 2", "re-run without -resume"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("error does not say %q:\n%s", want, out)
		}
	}
	if strings.Contains(string(out), "panic") {
		t.Fatalf("run panicked:\n%s", out)
	}
	if _, err := os.Stat(outPath); !os.IsNotExist(err) {
		t.Fatalf("a rank series was written (stat err %v)", err)
	}
	if got, err := os.ReadFile(manifest); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("the v2 manifest was replaced (read err %v)", err)
	}
}
