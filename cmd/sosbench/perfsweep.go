package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"sos/internal/arch"
	"sos/internal/expts"
	"sos/internal/milp"
	"sos/internal/model"
	"sos/internal/pareto"
	"sos/internal/telemetry"
)

// sweepScalingResult is one row of BENCH_sweep.json: the Table II MILP
// sweep measured at a fixed sweep-worker count. Model build/clone counts
// and speculation counters are per sweep: totals over every sweep the
// benchmark ran (its calibration rounds included) divided by Sweeps.
type sweepScalingResult struct {
	Workers        int     `json:"workers"`
	NsPerOp        int64   `json:"ns_per_op"`
	BytesPerOp     int64   `json:"bytes_per_op"`
	AllocsPerOp    int64   `json:"allocs_per_op"`
	Points         int     `json:"points"`
	Speedup        float64 `json:"speedup_vs_serial"`
	ModelBuilds    float64 `json:"model_builds_per_sweep"`
	ModelClones    float64 `json:"model_clones_per_sweep"`
	SpecHits       float64 `json:"speculative_hits_per_sweep"`
	SpecWasted     float64 `json:"speculative_wasted_per_sweep"`
	SpecRetargeted float64 `json:"speculative_retargeted_per_sweep"`
	Iterations     int     `json:"iterations"`
	Sweeps         int     `json:"sweeps"`
}

// sweepTemplateBuilds is what every MILP sweep must build: one
// MinMakespan and one MinCost template, whatever the worker count.
const sweepTemplateBuilds = 2

// sweepBenchFile is the committed sweep-scaling baseline the
// -check-baseline gate ratchets against.
const sweepBenchFile = "BENCH_sweep.json"

type sweepScalingReport struct {
	Date      string               `json:"date"`
	GoVersion string               `json:"go_version"`
	NumCPU    int                  `json:"num_cpu"`
	Workload  string               `json:"workload"`
	Results   []sweepScalingResult `json:"results"`
}

// PerfSweep measures the speculative-parallel Pareto sweep (DESIGN.md
// §10) on the Table II workload at 1, 2, and 4 workers, asserts every
// configuration returns the identical frontier, and writes the scaling
// report to BENCH_sweep.json (a fixed name, so CI can upload it as an
// artifact). With -check-baseline it instead compares the fresh
// measurements against the committed file and fails on a slowdown
// beyond -baseline-tolerance.
func PerfSweep() error {
	fmt.Println("== Sweep scaling report (Table II, MILP engine) ==")
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	want := make([][2]float64, len(expts.Table2Full))
	for i, pt := range expts.Table2Full {
		want[i] = [2]float64{pt.Cost, pt.Perf}
	}

	report := sweepScalingReport{
		Date:      time.Now().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Workload:  "example1-p2p-startcap14",
	}

	var benchErr error
	for _, workers := range []int{1, 2, 4} {
		tel := telemetry.New(nil)
		points, sweeps := 0, 0
		b0, c0 := model.BuildCount(), model.CloneCount()
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sweeps++
				pts, err := pareto.Sweep(context.Background(), g, pool, arch.PointToPoint{}, pareto.Options{
					Engine:       pareto.EngineMILP,
					MILP:         &milp.Options{TimeLimit: *budget, Branch: milp.BranchPseudoCost, Order: milp.BestFirst},
					StartCap:     14,
					SweepWorkers: workers,
					Telemetry:    tel,
				})
				if err != nil {
					if benchErr == nil {
						benchErr = fmt.Errorf("sweep at %d workers: %w", workers, err)
					}
					return
				}
				if err := pareto.FrontierEquals(pts, want, 1e-6); err != nil {
					if benchErr == nil {
						benchErr = fmt.Errorf("sweep at %d workers diverged from Table II: %w", workers, err)
					}
					return
				}
				points = len(pts)
			}
		})
		if benchErr != nil {
			return benchErr
		}
		snap := tel.Counters()
		perSweep := func(n int64) float64 { return float64(n) / float64(sweeps) }
		res := sweepScalingResult{
			Workers:        workers,
			NsPerOp:        r.NsPerOp(),
			BytesPerOp:     r.AllocedBytesPerOp(),
			AllocsPerOp:    r.AllocsPerOp(),
			Points:         points,
			ModelBuilds:    perSweep(model.BuildCount() - b0),
			ModelClones:    perSweep(model.CloneCount() - c0),
			SpecHits:       perSweep(snap["speculative_hits"]),
			SpecWasted:     perSweep(snap["speculative_wasted"]),
			SpecRetargeted: perSweep(snap["speculative_retargeted"]),
			Iterations:     r.N,
			Sweeps:         sweeps,
		}
		if len(report.Results) > 0 && res.NsPerOp > 0 {
			res.Speedup = float64(report.Results[0].NsPerOp) / float64(res.NsPerOp)
		} else if res.NsPerOp > 0 {
			res.Speedup = 1
		}
		report.Results = append(report.Results, res)
		fmt.Printf("  workers=%d %12d ns/op %10d B/op %8d allocs/op  %d points  %.2fx  builds/clones %.3g/%.3g  spec hit/wasted/retgt %.3g/%.3g/%.3g per sweep\n",
			workers, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp, res.Points, res.Speedup,
			res.ModelBuilds, res.ModelClones, res.SpecHits, res.SpecWasted, res.SpecRetargeted)
	}

	if *checkBaseline {
		return compareSweepBaseline(&report)
	}

	f, err := os.Create(sweepBenchFile)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n\n", sweepBenchFile)
	return nil
}

// compareSweepBaseline diffs fresh measurements against the committed
// BENCH_sweep.json and fails when any pinned worker count slowed beyond
// the tolerance, or when any fresh sweep built other than its two
// templates. Speedups and new worker counts pass (the baseline is a
// ratchet, not a straitjacket).
func compareSweepBaseline(fresh *sweepScalingReport) error {
	raw, err := os.ReadFile(sweepBenchFile)
	if err != nil {
		return fmt.Errorf("no committed baseline: %w (run `make perf-sweep` and commit %s)", err, sweepBenchFile)
	}
	var base sweepScalingReport
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse %s: %w", sweepBenchFile, err)
	}
	baseByWorkers := map[int]sweepScalingResult{}
	for _, r := range base.Results {
		baseByWorkers[r.Workers] = r
	}
	fmt.Printf("baseline %s (%s, %d CPU) vs fresh run, tolerance %.0f%%:\n",
		base.Date, base.GoVersion, base.NumCPU, 100**baselineTol)
	var failed []string
	for _, r := range fresh.Results {
		name := fmt.Sprintf("sweep-workers-%d", r.Workers)
		if r.ModelBuilds != sweepTemplateBuilds {
			fmt.Printf("  %-30s %.3g model builds per sweep, want %d  REGRESSION\n", name, r.ModelBuilds, sweepTemplateBuilds)
			failed = append(failed, name+"-builds")
		}
		b, ok := baseByWorkers[r.Workers]
		if !ok || b.NsPerOp <= 0 {
			fmt.Printf("  %-30s (no baseline; skipped)\n", name)
			continue
		}
		ratio := float64(r.NsPerOp) / float64(b.NsPerOp)
		verdict := "ok"
		if ratio > 1+*baselineTol {
			verdict = "REGRESSION"
			failed = append(failed, name)
		}
		fmt.Printf("  %-30s %14d -> %14d ns/op (%.2fx) %s\n", name, b.NsPerOp, r.NsPerOp, ratio, verdict)
	}
	if len(failed) > 0 {
		return fmt.Errorf("sweep perf gate: %d check(s) failed (>%.0f%% slowdown or builds per sweep != %d): %v",
			len(failed), 100**baselineTol, sweepTemplateBuilds, failed)
	}
	fmt.Println()
	return nil
}
