package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSavedTraceReplaysLikeLiveRun pins BPTR persistence to the streaming
// pipeline: a PWS-annotated trace saved by tracegen and replayed by
// prefetchsim without further annotation must simulate exactly like
// prefetchsim running the same workload and strategy live.
func TestSavedTraceReplaysLikeLiveRun(t *testing.T) {
	dir := t.TempDir()
	bptr := filepath.Join(dir, "water.bptr")
	var out bytes.Buffer
	if err := run([]string{"-workload", "water", "-scale", "0.05", "-strategy", "PWS", "-o", bptr}, &out); err != nil {
		t.Fatalf("tracegen: %v", err)
	}
	for _, want := range []string{"workload water", "prefetches:", "wrote " + bptr} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("tracegen output missing %q:\n%s", want, out.String())
		}
	}

	prefetchsim := buildPrefetchsim(t, dir)
	replay := runCmd(t, prefetchsim, "-trace", bptr, "-strategy", "NP")
	live := runCmd(t, prefetchsim, "-workload", "water", "-scale", "0.05", "-strategy", "PWS")
	if got, want := resultLines(t, replay), resultLines(t, live); got != want {
		t.Errorf("replayed trace simulates differently from the live run:\nreplay:\n%s\nlive:\n%s", got, want)
	}
}

// TestPrefetchOverheadLine: the overhead tracegen prints is prefetch events
// per demand reference, and an NP trace has none.
func TestPrefetchOverheadLine(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-workload", "water", "-scale", "0.05"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "prefetches:     0 (overhead 0.0%)") {
		t.Errorf("NP trace reports prefetches:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-workload", "water", "-scale", "0.05", "-strategy", "PREF"}, &out); err != nil {
		t.Fatal(err)
	}
	var demand, reads, writes, locks, prefetches int
	var overhead float64
	for _, line := range strings.Split(out.String(), "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "demand refs:"):
			fmt.Sscanf(line, "demand refs: %d (%d reads, %d writes, %d sync locks)", &demand, &reads, &writes, &locks)
		case strings.HasPrefix(line, "prefetches:"):
			fmt.Sscanf(line, "prefetches: %d (overhead %f%%)", &prefetches, &overhead)
		}
	}
	if demand == 0 || prefetches == 0 {
		t.Fatalf("could not read demand refs (%d) and prefetches (%d) from:\n%s", demand, prefetches, out.String())
	}
	if want := fmt.Sprintf("%.1f", 100*float64(prefetches)/float64(demand)); fmt.Sprintf("%.1f", overhead) != want {
		t.Errorf("overhead %.1f%%, want %s%% (%d prefetches / %d demand refs)", overhead, want, prefetches, demand)
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-strategy", "nosuch", "-scale", "0.05"},
		{"-workload", "nosuch", "-scale", "0.05"},
		{"-scale", "0.05", "extra"},
		{"-nosuchflag"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("tracegen %v succeeded, want an error", args)
		}
	}
}

// buildPrefetchsim compiles the sibling prefetchsim command into dir.
func buildPrefetchsim(t *testing.T, dir string) string {
	t.Helper()
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(dir, "prefetchsim")
	cmd := exec.Command(gobin, "build", "-o", bin, "busprefetch/cmd/prefetchsim")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("building prefetchsim: %v", err)
	}
	return bin
}

func runCmd(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

// resultLines returns prefetchsim's report with the strategy-dependent
// fields of the result row (the strategy name and the relative time, which
// needs an NP run in the same invocation) blanked out, keeping the cycle
// count, every miss rate, utilization and prefetch count, and the miss
// component lines.
func resultLines(t *testing.T, report string) string {
	t.Helper()
	lines := strings.Split(strings.TrimRight(report, "\n"), "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, "strategy ") || i+1 >= len(lines) {
			continue
		}
		row := strings.Fields(lines[i+1])
		if len(row) < 12 {
			t.Fatalf("short result row %q", lines[i+1])
		}
		row[0], row[2] = "-", "-"
		lines[i+1] = strings.Join(row, " ")
		return strings.Join(lines, "\n")
	}
	t.Fatalf("no result table in:\n%s", report)
	return ""
}
