package sos

import (
	"context"
	"math"
	"path/filepath"
	"sync"
	"testing"

	"sos/internal/arch"
	"sos/internal/expts"
	"sos/internal/leakcheck"
	"sos/internal/telemetry"
)

// frontierWorkloads are the paper's three published frontiers.
func frontierWorkloads() []struct {
	name string
	spec Spec
	want []expts.ParetoPoint
} {
	g1, lib1 := expts.Example1()
	g2, lib2 := expts.Example2()
	return []struct {
		name string
		spec Spec
		want []expts.ParetoPoint
	}{
		{"table2", Spec{Graph: g1, Library: lib1, Pool: expts.Example1Pool(lib1)}, expts.Table2Full},
		{"table4", Spec{Graph: g2, Library: lib2, Pool: expts.Example2Pool(lib2)}, expts.Table4},
		{"table5", Spec{Graph: g2, Library: lib2, Pool: expts.Example2Pool(lib2), Topology: arch.Bus{}}, expts.Table5},
	}
}

// sameFrontier asserts two frontiers are bit-identical: same length and
// the exact same cost/perf/status/gap at every index.
func sameFrontier(t *testing.T, want, got []FrontierPoint) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("frontier has %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Cost != got[i].Cost || want[i].Perf != got[i].Perf ||
			want[i].Status != got[i].Status || want[i].Gap != got[i].Gap {
			t.Errorf("point %d: (%g,%g,%v,%v), want (%g,%g,%v,%v)", i,
				got[i].Cost, got[i].Perf, got[i].Status, got[i].Gap,
				want[i].Cost, want[i].Perf, want[i].Status, want[i].Gap)
		}
	}
}

// TestFrontierCachedBitIdentical is the tentpole's correctness anchor:
// on all three paper workloads, a cold sweep, a fully cached repeat
// sweep, and a delta-resolved (partially covered) sweep must return
// bit-identical frontiers, with the repeat and delta paths pinned by the
// frontier counters.
func TestFrontierCachedBitIdentical(t *testing.T) {
	leakcheck.Check(t)
	for _, w := range frontierWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			cold, err := Frontier(context.Background(), w.spec)
			if err != nil {
				t.Fatal(err)
			}
			wantPub := make([]FrontierPoint, len(w.want))
			for i, pt := range w.want {
				wantPub[i] = FrontierPoint{Cost: pt.Cost, Perf: pt.Perf, Status: StatusOptimal}
			}
			sameFrontier(t, wantPub, cold)

			tel := telemetry.New(nil)
			c := testCache(t, CacheOptions{Telemetry: tel})
			sp := w.spec
			sp.Cache = c
			sp.Telemetry = tel

			first, err := Frontier(context.Background(), sp)
			if err != nil {
				t.Fatal(err)
			}
			sameFrontier(t, cold, first)
			if got := tel.Get(telemetry.CtrFrontierMisses); got != 1 {
				t.Fatalf("frontier_misses = %d, want 1", got)
			}

			repeat, err := Frontier(context.Background(), sp)
			if err != nil {
				t.Fatal(err)
			}
			sameFrontier(t, cold, repeat)
			if got := tel.Get(telemetry.CtrFrontierHits); got != 1 {
				t.Fatalf("frontier_hits = %d, want 1", got)
			}

			// Delta path: a fresh cache seeded with only the sub-frontier
			// below the head point must solve exactly the head point when
			// asked for the full range, and still match the cold sweep.
			tel2 := telemetry.New(nil)
			c2 := testCache(t, CacheOptions{Telemetry: tel2})
			dsp := w.spec
			dsp.Cache = c2
			dsp.Telemetry = tel2
			dsp.CostCap = cold[0].Cost - 1
			part, err := Frontier(context.Background(), dsp)
			if err != nil {
				t.Fatal(err)
			}
			sameFrontier(t, cold[1:], part)
			dsp.CostCap = 0
			full, err := Frontier(context.Background(), dsp)
			if err != nil {
				t.Fatal(err)
			}
			sameFrontier(t, cold, full)
			if got := tel2.Get(telemetry.CtrFrontierPartialHits); got != 1 {
				t.Fatalf("frontier_partial_hits = %d, want 1", got)
			}
			if got := tel2.Get(telemetry.CtrFrontierDeltaPoints); got != 1 {
				t.Fatalf("frontier_delta_points = %d, want 1", got)
			}
		})
	}
}

// TestFrontierCachePersistAcrossRestart: a swept frontier persists to
// the cache's spill and a restarted cache serves the same frontier
// without invoking a solver (pinned by the solver node counters).
func TestFrontierCachePersistAcrossRestart(t *testing.T) {
	leakcheck.Check(t)
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	g, lib := expts.Example1()
	base := Spec{Graph: g, Library: lib, Pool: expts.Example1Pool(lib)}

	c1, err := NewCache(CacheOptions{PersistPath: path})
	if err != nil {
		t.Fatal(err)
	}
	sp := base
	sp.Cache = c1
	cold, err := Frontier(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	tel := telemetry.New(nil)
	c2 := testCache(t, CacheOptions{PersistPath: path, Telemetry: tel})
	// The sweep spilled as one line holding its whole chain.
	if restored, skipped := c2.Loaded(); restored != 1 || skipped != 0 {
		t.Fatalf("Loaded = (%d, %d), want (1, 0)", restored, skipped)
	}
	sp = base
	sp.Cache = c2
	sp.Telemetry = tel
	warm, err := Frontier(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	sameFrontier(t, cold, warm)
	if n := tel.Get(telemetry.CtrMapNodes) + tel.Get(telemetry.CtrSchedNodes) +
		tel.Get(telemetry.CtrNodesExpanded); n != 0 {
		t.Fatalf("restored sweep did solver work (%d nodes), want 0", n)
	}
	if got := tel.Get(telemetry.CtrFrontierHits); got != 1 {
		t.Fatalf("frontier_hits = %d, want 1", got)
	}
}

// TestFrontierSingleflightStorm: concurrent identical sweeps on an empty
// store coalesce to one solving leader; every caller gets the identical
// complete frontier and the store ends with exactly one chain solved.
func TestFrontierSingleflightStorm(t *testing.T) {
	leakcheck.Check(t)
	tel := telemetry.New(nil)
	c := testCache(t, CacheOptions{Telemetry: tel})
	g, lib := expts.Example1()
	sp := Spec{Graph: g, Library: lib, Pool: expts.Example1Pool(lib), Cache: c}

	const callers = 8
	results := make([][]FrontierPoint, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Frontier(context.Background(), sp)
		}(i)
	}
	wg.Wait()
	if errs[0] != nil {
		t.Fatalf("caller 0: %v", errs[0])
	}
	for i := 1; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		sameFrontier(t, results[0], results[i])
	}
	if len(results[0]) != len(expts.Table2Full) {
		t.Fatalf("frontier has %d points, want %d", len(results[0]), len(expts.Table2Full))
	}
	// Exactly one chain was solved cold; every other caller either
	// coalesced onto it or was served from the store.
	if got := tel.Get(telemetry.CtrFrontierMisses); got != 1 {
		t.Fatalf("frontier_misses = %d, want 1 (dedup failed)", got)
	}
	if got := tel.Get(telemetry.CtrFrontierStores); got != 1 {
		t.Fatalf("frontier_stores = %d, want 1", got)
	}
	// One frontier proof per point plus the terminal infeasibility proof.
	if c.Len() != len(expts.Table2Full)+1 {
		t.Fatalf("cache holds %d proofs, want %d", c.Len(), len(expts.Table2Full)+1)
	}
}

// TestFrontierPointsServeSynthesize: a cached sweep's points are proofs
// like any other, so a Synthesize at a cap strictly inside a point's
// cover range [cost, chain cap] is a cover hit at that point's perf,
// without a solver.
func TestFrontierPointsServeSynthesize(t *testing.T) {
	leakcheck.Check(t)
	tel := telemetry.New(nil)
	c := testCache(t, CacheOptions{Telemetry: tel})
	g, lib := expts.Example1()
	base := Spec{Graph: g, Library: lib, Pool: expts.Example1Pool(lib), Cache: c}
	pts, err := Frontier(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i := 1; i < len(pts); i++ {
		chainCap := pts[i-1].Cost - 1 // where the sweep solved point i
		if chainCap-pts[i].Cost < 0.5 {
			continue // no cap strictly inside the range
		}
		sp := base
		sp.CostCap = pts[i].Cost + (chainCap-pts[i].Cost)/2
		sp.Telemetry = tel
		hits, misses := tel.Get(telemetry.CtrCacheHits), tel.Get(telemetry.CtrCacheMisses)
		res, err := Synthesize(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cached || res.Status != StatusOptimal || res.Design.Makespan != pts[i].Perf {
			t.Fatalf("cap %g: cached=%v status=%v makespan=%g, want a cover hit at perf %g",
				sp.CostCap, res.Cached, res.Status, res.Design.Makespan, pts[i].Perf)
		}
		if tel.Get(telemetry.CtrCacheHits) != hits+1 || tel.Get(telemetry.CtrCacheMisses) != misses {
			t.Fatalf("cap %g: not counted as one cache hit", sp.CostCap)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no frontier point has a cover range wider than its chain cap")
	}
}

// TestFrontierMixedStorm: sweeps and point solves of one family now share
// the cache's entries and flight map. Concurrent sweeps (from two start
// caps) and Synthesize calls (at caps across the whole range) must each
// return what they return cold.
func TestFrontierMixedStorm(t *testing.T) {
	leakcheck.Check(t)
	g, lib := expts.Example1()
	base := Spec{Graph: g, Library: lib, Pool: expts.Example1Pool(lib)}
	caps := []float64{0, 20, 13, 9, 7, 6.5, 5, 3}
	coldPerf := map[float64]float64{}
	for _, cp := range caps {
		sp := base
		sp.CostCap = cp
		res, err := Synthesize(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		coldPerf[cp] = math.Inf(1)
		if res.Design != nil {
			coldPerf[cp] = res.Design.Makespan
		}
	}
	coldSweep := map[float64][]FrontierPoint{}
	for _, start := range []float64{0, 9} {
		sp := base
		sp.CostCap = start
		pts, err := Frontier(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		coldSweep[start] = pts
	}

	c := testCache(t, CacheOptions{Capacity: 64, Shards: 2})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				sp := base
				sp.Cache = c
				if (w+i)%3 == 0 {
					sp.CostCap = []float64{0, 9}[(w+i)%2]
					pts, err := Frontier(context.Background(), sp)
					if err != nil {
						t.Error(err)
						return
					}
					want := coldSweep[sp.CostCap]
					if len(pts) != len(want) {
						t.Errorf("sweep from %g: %d points, want %d", sp.CostCap, len(pts), len(want))
						return
					}
					for k := range want {
						if pts[k].Cost != want[k].Cost || pts[k].Perf != want[k].Perf || pts[k].Status != want[k].Status {
							t.Errorf("sweep from %g point %d: (%g,%g), want (%g,%g)", sp.CostCap, k,
								pts[k].Cost, pts[k].Perf, want[k].Cost, want[k].Perf)
						}
					}
					continue
				}
				sp.CostCap = caps[(w*7+i)%len(caps)]
				res, err := Synthesize(context.Background(), sp)
				if err != nil {
					t.Error(err)
					return
				}
				got := math.Inf(1)
				if res.Design != nil {
					got = res.Design.Makespan
				}
				if got != coldPerf[sp.CostCap] {
					t.Errorf("cap %g: makespan %g, want %g", sp.CostCap, got, coldPerf[sp.CostCap])
				}
			}
		}(w)
	}
	wg.Wait()
}
