package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func buildBench(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "sosbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func TestBenchTables(t *testing.T) {
	bin := buildBench(t)
	out, err := exec.Command(bin, "-table1", "-table2", "-table3", "-fig1", "-fig3", "-budget", "3m").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{
		"Table I:", "Table II:", "Table III:",
		"| 1 | 14 | 2.5 | (14, 2.5) | yes |",
		"Figure 1", "Figure 3",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(s, "| NO |") {
		t.Errorf("a frontier point mismatched the paper:\n%s", s)
	}
}

func TestBenchTable4And5(t *testing.T) {
	bin := buildBench(t)
	out, err := exec.Command(bin, "-table4", "-table5", "-budget", "3m").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{
		"| 1 | 15 | 5 | (15, 5) | yes |",
		"| 1 | 10 | 6 | (10, 6) | yes |",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

// TestBenchSweepWorkers drives the -sweep-workers flag end to end: the
// speculative-parallel Table II sweep must reproduce every paper row.
func TestBenchSweepWorkers(t *testing.T) {
	bin := buildBench(t)
	out, err := exec.Command(bin, "-table2", "-sweep-workers", "4", "-budget", "3m").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{
		"| 1 | 14 | 2.5 | (14, 2.5) | yes |",
		"4 sweep workers",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "| NO |") {
		t.Errorf("a frontier point mismatched the paper:\n%s", s)
	}
}

// TestBenchPerfSweep smokes the -perf-sweep report: it must measure
// workers 1/2/4, find the full 5-point frontier at each, build exactly
// the two templates per sweep, and write a parseable BENCH_sweep.json.
func TestBenchPerfSweep(t *testing.T) {
	bin := buildBench(t)
	dir := t.TempDir()
	cmd := exec.Command(bin, "-perf-sweep", "-budget", "3m")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_sweep.json"))
	if err != nil {
		t.Fatalf("report not written: %v\n%s", err, out)
	}
	var rep sweepScalingReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("unmarshal report: %v\n%s", err, data)
	}
	if len(rep.Results) != 3 {
		t.Fatalf("report has %d results, want 3:\n%s", len(rep.Results), data)
	}
	for i, workers := range []int{1, 2, 4} {
		r := rep.Results[i]
		if r.Workers != workers || r.Points != 5 || r.NsPerOp <= 0 {
			t.Errorf("result %d: workers=%d points=%d ns/op=%d, want workers=%d points=5 ns/op>0",
				i, r.Workers, r.Points, r.NsPerOp, workers)
		}
		if r.ModelBuilds != sweepTemplateBuilds || r.Sweeps < r.Iterations {
			t.Errorf("result %d: %g builds per sweep over %d sweeps (%d iterations), want %d per sweep",
				i, r.ModelBuilds, r.Sweeps, r.Iterations, sweepTemplateBuilds)
		}
	}
}

func TestBenchNoFlagsUsage(t *testing.T) {
	bin := buildBench(t)
	if out, err := exec.Command(bin).CombinedOutput(); err == nil {
		t.Errorf("no flags accepted:\n%s", out)
	}
}
