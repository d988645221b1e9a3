package pareto

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sos/internal/arch"
	"sos/internal/budget"
	"sos/internal/exact"
	"sos/internal/expts"
	"sos/internal/leakcheck"
	"sos/internal/milp"
	"sos/internal/model"
	"sos/internal/schedule"
	"sos/internal/taskgraph"
	"sos/internal/telemetry"
)

// forceParallel raises GOMAXPROCS for the test's duration so the worker
// clamp (which drops a sweep to one worker, and so to no speculation, on
// single-CPU hosts) keeps the speculative machinery under test regardless
// of the machine running the suite.
func forceParallel(t *testing.T, workers int) {
	t.Helper()
	if old := runtime.GOMAXPROCS(0); old < workers {
		runtime.GOMAXPROCS(workers)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
}

// frontiersIdentical asserts the two sweeps produced the same frontier:
// same length, and the same (cost, perf, status) at every index.
func frontiersIdentical(t *testing.T, seq, par []Point) {
	t.Helper()
	if len(seq) != len(par) {
		t.Fatalf("sequential frontier has %d points, parallel %d", len(seq), len(par))
	}
	for i := range seq {
		if math.Abs(seq[i].Cost()-par[i].Cost()) > 1e-6 ||
			math.Abs(seq[i].Perf()-par[i].Perf()) > 1e-6 {
			t.Errorf("point %d: sequential (%g,%g) vs parallel (%g,%g)", i,
				seq[i].Cost(), seq[i].Perf(), par[i].Cost(), par[i].Perf())
		}
		if seq[i].Status != par[i].Status {
			t.Errorf("point %d: sequential status %v vs parallel %v", i, seq[i].Status, par[i].Status)
		}
	}
}

// TestParallelSweepMatchesSequentialMILP is the sweep's correctness
// anchor: the speculative Table II sweep must return the exact frontier
// of the one-worker sweep — same points, same order, same statuses — with
// the race detector watching the shared templates, incumbent pool, and
// job queue.
func TestParallelSweepMatchesSequentialMILP(t *testing.T) {
	forceParallel(t, 4)
	leakcheck.Check(t)
	if testing.Short() {
		t.Skip("MILP sweep in -short mode")
	}
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	base := Options{
		Engine: EngineMILP,
		MILP:   &milp.Options{TimeLimit: 2 * time.Minute},
	}
	seq, err := Sweep(context.Background(), g, pool, arch.PointToPoint{}, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		po := base
		po.SweepWorkers = workers
		par, err := Sweep(context.Background(), g, pool, arch.PointToPoint{}, po)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		frontiersIdentical(t, seq, par)
	}
	want := make([][2]float64, len(expts.Table2Full))
	for i, pt := range expts.Table2Full {
		want[i] = [2]float64{pt.Cost, pt.Perf}
	}
	if err := FrontierEquals(seq, want, 1e-6); err != nil {
		t.Fatal(err)
	}
}

// TestParallelSweepMatchesSequentialCombinatorial runs the cheaper
// combinatorial engine over all three table workloads at 1 and 4 workers,
// so every topology's speculative path gets -race coverage in every test
// run (including -short).
func TestParallelSweepMatchesSequentialCombinatorial(t *testing.T) {
	forceParallel(t, 4)
	leakcheck.Check(t)
	g1, lib1 := expts.Example1()
	g2, lib2 := expts.Example2()
	workloads := []struct {
		name string
		g    *taskgraph.Graph
		pool *arch.Instances
		topo arch.Topology
	}{
		{"example1-p2p", g1, expts.Example1Pool(lib1), arch.PointToPoint{}},
		{"example2-p2p", g2, expts.Example2Pool(lib2), arch.PointToPoint{}},
		{"example2-bus", g2, expts.Example2Pool(lib2), arch.Bus{}},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			base := Options{
				Engine:       EngineCombinatorial,
				Exact:        &exact.Options{TimeLimit: 2 * time.Minute},
				SweepWorkers: 1,
			}
			seq, err := Sweep(context.Background(), w.g, w.pool, w.topo, base)
			if err != nil {
				t.Fatal(err)
			}
			po := base
			po.SweepWorkers = 4
			par, err := Sweep(context.Background(), w.g, w.pool, w.topo, po)
			if err != nil {
				t.Fatal(err)
			}
			frontiersIdentical(t, seq, par)
		})
	}
}

// TestParallelSweepBuildAmortization verifies the model-reuse claim with
// the package counters at every sweep width: a whole MILP sweep performs
// exactly two full Builds (one MinMakespan template, one MinCost template)
// however many points and speculative jobs it solves, and at least one
// clone per lexicographic solve. The deadline sweep shares the same two
// templates, and a combinatorial sweep builds none (they are lazy).
func TestParallelSweepBuildAmortization(t *testing.T) {
	forceParallel(t, 4)
	leakcheck.Check(t)
	if testing.Short() {
		t.Skip("MILP sweep in -short mode")
	}
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	p2p := arch.PointToPoint{}
	milpAt := func(workers int) Options {
		return Options{
			Engine:       EngineMILP,
			MILP:         &milp.Options{TimeLimit: 2 * time.Minute},
			SweepWorkers: workers,
		}
	}
	sweepAt := func(workers int) func() ([]Point, error) {
		return func() ([]Point, error) {
			return Sweep(context.Background(), g, pool, p2p, milpAt(workers))
		}
	}
	cases := []struct {
		name   string
		sweep  func() ([]Point, error)
		builds int64
	}{
		{"milp-workers-0", sweepAt(0), 2},
		{"milp-workers-1", sweepAt(1), 2},
		{"milp-workers-4", sweepAt(4), 2},
		{"milp-by-deadline", func() ([]Point, error) {
			return SweepByDeadline(context.Background(), g, pool, p2p, milpAt(0), 1e-3)
		}, 2},
		{"combinatorial", func() ([]Point, error) {
			return Sweep(context.Background(), g, pool, p2p, Options{
				Engine: EngineCombinatorial,
				Exact:  &exact.Options{TimeLimit: 2 * time.Minute},
			})
		}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b0, c0 := model.BuildCount(), model.CloneCount()
			points, err := c.sweep()
			if err != nil {
				t.Fatal(err)
			}
			if len(points) != len(expts.Table2Full) {
				t.Fatalf("frontier has %d points, want %d", len(points), len(expts.Table2Full))
			}
			if builds := model.BuildCount() - b0; builds != c.builds {
				t.Errorf("sweep performed %d full Builds, want exactly %d", builds, c.builds)
			}
			// Each MILP frontier point needs a perf clone and a cost clone.
			if clones := model.CloneCount() - c0; c.builds > 0 && clones < int64(2*len(points)) {
				t.Errorf("sweep performed %d clones, want >= %d", clones, 2*len(points))
			}
		})
	}
}

// chainSource is a FrontierSource holding part of a cold sweep's chain:
// covered maps a chain cap to the point the cold sweep found there. It
// records every cap a solve asked it for warm designs, which is once per
// solved cap.
type chainSource struct {
	covered map[float64]Point
	mu      sync.Mutex
	warmed  []float64
}

func (s *chainSource) Serve(w float64) ([]Point, bool) {
	var out []Point
	for {
		pt, ok := s.covered[w]
		if !ok {
			return out, false
		}
		out = append(out, pt)
		w = pt.Cost() - 1
	}
}

func (s *chainSource) Covers(w float64) bool {
	_, ok := s.covered[w]
	return ok
}

func (s *chainSource) Warm(w float64, max int) []*schedule.Design {
	s.mu.Lock()
	s.warmed = append(s.warmed, w)
	s.mu.Unlock()
	return nil
}

// TestSweepPartialFrontierSource drives a partially covered frontier
// source through the sweep: the store covers the chain's first
// point and one point below a hole. At every width the frontier must
// equal the cold sweep's, the covered points must come from the store,
// and the chain must solve only the uncovered caps. No speculative
// worker may solve a covered cap either.
func TestSweepPartialFrontierSource(t *testing.T) {
	forceParallel(t, 4)
	leakcheck.Check(t)
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	p2p := arch.PointToPoint{}
	base := Options{
		Engine: EngineCombinatorial,
		Exact:  &exact.Options{TimeLimit: 2 * time.Minute},
	}
	cold, err := Sweep(context.Background(), g, pool, p2p, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold) < 5 {
		t.Fatalf("cold frontier has %d points, need >= 5 for a prefix and a hole", len(cold))
	}
	// Chain cap i is where the cold sweep solved point i; the cap after
	// the last point is the terminal (infeasible) solve.
	caps := []float64{0}
	for _, pt := range cold {
		caps = append(caps, pt.Cost()-1)
	}
	coveredIdx := map[int]bool{0: true, 3: true}
	var uncovered []float64
	for i, c := range caps {
		if !coveredIdx[i] && c > 0 {
			uncovered = append(uncovered, c)
		}
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			src := &chainSource{covered: map[float64]Point{}}
			for i := range coveredIdx {
				src.covered[caps[i]] = cold[i]
			}
			ctr := &telemetry.CountingSink{}
			o := base
			o.Source = src
			o.SweepWorkers = workers
			o.Telemetry = telemetry.New(ctr)
			got, err := Sweep(context.Background(), g, pool, p2p, o)
			if err != nil {
				t.Fatal(err)
			}
			frontiersIdentical(t, cold, got)
			for i := range got {
				if served := got[i].Design == cold[i].Design; served != coveredIdx[i] {
					t.Errorf("point %d: served from the store = %v, want %v", i, served, coveredIdx[i])
				}
			}
			if n := ctr.Count(telemetry.EvPoint); n != int64(len(uncovered)) {
				t.Errorf("chain solved %d caps, want the %d uncovered ones", n, len(uncovered))
			}
			solved := map[float64]bool{}
			for _, c := range src.warmed {
				solved[c] = true
			}
			for _, c := range uncovered {
				if !solved[c] {
					t.Errorf("uncovered cap %g was never solved", c)
				}
			}
			if workers == 1 && len(src.warmed) != len(uncovered) {
				t.Errorf("one-worker sweep solved caps %v, want exactly %v", src.warmed, uncovered)
			}
			// Speculation skips what the source covers: no worker may
			// solve a covered cap, the chain serves it from the source.
			for _, c := range src.warmed {
				if _, ok := src.covered[c]; ok {
					t.Errorf("covered cap %g was solved (solved caps %v)", c, src.warmed)
				}
			}
			if extra := len(src.warmed) - len(uncovered); extra > 0 {
				t.Logf("%d solves beyond the uncovered caps: %v", extra, src.warmed)
			}
		})
	}
}

// TestParallelSweepFaultInjection crashes exactly one MILP solve (a panic
// on its first branch-and-bound node) and checks the sweep degrades
// gracefully: the failed job is retried inline by the reconciler and the
// frontier comes back complete and correct.
func TestParallelSweepFaultInjection(t *testing.T) {
	forceParallel(t, 4)
	leakcheck.Check(t)
	if testing.Short() {
		t.Skip("MILP sweep in -short mode")
	}
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	var fired atomic.Bool
	points, err := Sweep(context.Background(), g, pool, arch.PointToPoint{}, Options{
		Engine: EngineMILP,
		MILP: &milp.Options{
			TimeLimit: 2 * time.Minute,
			Hooks: &milp.Hooks{OnNode: func(int) {
				if fired.CompareAndSwap(false, true) {
					panic("injected solver crash")
				}
			}},
		},
		SweepWorkers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !fired.Load() {
		t.Fatal("fault never injected")
	}
	want := make([][2]float64, len(expts.Table2Full))
	for i, pt := range expts.Table2Full {
		want[i] = [2]float64{pt.Cost, pt.Perf}
	}
	if err := FrontierEquals(points, want, 1e-6); err != nil {
		for _, p := range points {
			t.Logf("  point: cost=%g perf=%g status=%v", p.Cost(), p.Perf(), p.Status)
		}
		t.Fatal(err)
	}
}

// TestParallelSweepSpeculationTelemetry checks the speculation events are
// accounted: with a StartCap the grid is non-empty, and every speculative
// job ends classified as exactly one of hit, wasted, or retargeted.
func TestParallelSweepSpeculationTelemetry(t *testing.T) {
	forceParallel(t, 4)
	leakcheck.Check(t)
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	tel := telemetry.New(nil)
	_, err := Sweep(context.Background(), g, pool, arch.PointToPoint{}, Options{
		Engine:       EngineCombinatorial,
		Exact:        &exact.Options{TimeLimit: 2 * time.Minute},
		StartCap:     14,
		SweepWorkers: 4,
		Telemetry:    tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := tel.Counters()
	total := snap["speculative_hits"] + snap["speculative_wasted"] + snap["speculative_retargeted"]
	if total == 0 {
		t.Error("no speculation events recorded (grid unexpectedly empty)")
	}
	if snap["points"] != int64(len(expts.Table2Full)) {
		t.Errorf("points counter = %d, want %d", snap["points"], len(expts.Table2Full))
	}
}

// TestParallelSweepGovernedLadder runs the parallel sweep under a tight
// governor with the full degradation ladder: it must not error, and every
// returned point must respect the frontier invariant (decreasing cost,
// strictly increasing makespan).
func TestParallelSweepGovernedLadder(t *testing.T) {
	forceParallel(t, 4)
	leakcheck.Check(t)
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	points, err := Sweep(context.Background(), g, pool, arch.PointToPoint{}, Options{
		Engine:       EngineMILP,
		MILP:         &milp.Options{TimeLimit: 2 * time.Minute},
		Governor:     budget.New(50 * time.Millisecond),
		Ladder:       budget.DefaultLadder(budget.RungMILP),
		SweepWorkers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(points); i++ {
		if points[i].Cost() >= points[i-1].Cost() || points[i].Perf() <= points[i-1].Perf() {
			t.Errorf("invariant violated between points %d and %d: (%g,%g) then (%g,%g)",
				i-1, i, points[i-1].Cost(), points[i-1].Perf(), points[i].Cost(), points[i].Perf())
		}
	}
}
