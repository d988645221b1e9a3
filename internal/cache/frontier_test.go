package cache

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"sos/internal/arch"
	"sos/internal/exact"
	"sos/internal/expts"
	"sos/internal/pareto"
	"sos/internal/taskgraph"
	"sos/internal/telemetry"
)

func newFrontierStore(t *testing.T, opts FrontierOptions) *FrontierStore {
	t.Helper()
	fs, err := NewFrontierStore(opts)
	if err != nil {
		t.Fatalf("NewFrontierStore: %v", err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs
}

// sweepThrough runs one combinatorial sweep with the view plugged in as
// its frontier source (nil view = cold sweep) and finishes it against
// the store.
func sweepThrough(t *testing.T, g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology,
	v *FrontierView, tel *telemetry.Collector, startCap float64) []pareto.Point {
	t.Helper()
	opts := pareto.Options{
		Engine:    pareto.EngineCombinatorial,
		Exact:     &exact.Options{TimeLimit: 2 * time.Minute},
		Telemetry: tel,
		StartCap:  startCap,
	}
	if v != nil {
		opts.Source = v
	}
	pts, err := pareto.Sweep(context.Background(), g, pool, topo, opts)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if v != nil {
		v.Finish(pts, err)
	}
	return pts
}

// solverWork sums every counter that a solver invocation would bump, so
// zero means the sweep was answered entirely from the store.
func solverWork(tel *telemetry.Collector) int64 {
	return tel.Get(telemetry.CtrMapNodes) + tel.Get(telemetry.CtrSchedNodes) +
		tel.Get(telemetry.CtrNodesExpanded)
}

func samePoints(t *testing.T, want, got []pareto.Point) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("frontier has %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Cost() != got[i].Cost() || want[i].Perf() != got[i].Perf() {
			t.Errorf("point %d: (%g,%g), want (%g,%g)", i,
				got[i].Cost(), got[i].Perf(), want[i].Cost(), want[i].Perf())
		}
		if want[i].Status != got[i].Status || want[i].Gap != got[i].Gap || want[i].Rung != got[i].Rung {
			t.Errorf("point %d: status/gap/rung (%v,%v,%q) diverged from cold sweep (%v,%v,%q)",
				i, got[i].Status, got[i].Gap, got[i].Rung,
				want[i].Status, want[i].Gap, want[i].Rung)
		}
	}
}

// TestFrontierHitRoundTrip: a cold sweep stores its frontier; an
// identical repeat sweep and a renamed/reordered one must both be served
// bit-identically with zero solver invocations.
func TestFrontierHitRoundTrip(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	p2p := arch.PointToPoint{}
	tel := telemetry.New(nil)
	fs := newFrontierStore(t, FrontierOptions{Telemetry: tel})
	p := mustProbe(t, Request{Graph: g, Pool: pool, Topo: p2p})

	cold := sweepThrough(t, g, pool, p2p, fs.View(p, 1, 0), tel, 0)
	if len(cold) != len(expts.Table2Full) {
		t.Fatalf("cold sweep found %d points, want %d", len(cold), len(expts.Table2Full))
	}
	if got := tel.Get(telemetry.CtrFrontierMisses); got != 1 {
		t.Fatalf("frontier_misses = %d, want 1", got)
	}
	if got := tel.Get(telemetry.CtrFrontierStores); got != 1 {
		t.Fatalf("frontier_stores = %d, want 1", got)
	}
	if fs.Len() != 1 {
		t.Fatalf("store holds %d frontiers, want 1", fs.Len())
	}

	tel2 := telemetry.New(nil)
	fs.tel = tel2
	warm := sweepThrough(t, g, pool, p2p, fs.View(p, 1, 0), tel2, 0)
	samePoints(t, cold, warm)
	if w := solverWork(tel2); w != 0 {
		t.Fatalf("repeat sweep did solver work (%d nodes), want 0", w)
	}
	if got := tel2.Get(telemetry.CtrFrontierHits); got != 1 {
		t.Fatalf("frontier_hits = %d, want 1", got)
	}

	// A renamed/reordered presentation of the same problem must hit the
	// same frontier, with every served design remapped onto its own
	// graph and pool.
	pg, plib := permute(g, lib, []int{3, 1, 0, 2}, []int{2, 0, 1}, []int{2, 0, 1})
	ppool := arch.InstancePool(plib, permutedCounts([]int{2, 2, 2}, []int{2, 0, 1}))
	pp := mustProbe(t, Request{Graph: pg, Pool: ppool, Topo: p2p})
	tel3 := telemetry.New(nil)
	fs.tel = tel3
	perm := sweepThrough(t, pg, ppool, p2p, fs.View(pp, 1, 0), tel3, 0)
	samePoints(t, cold, perm)
	if w := solverWork(tel3); w != 0 {
		t.Fatalf("permuted sweep did solver work (%d nodes), want 0", w)
	}
	for i, pt := range perm {
		if pt.Design.Graph != pg || pt.Design.Pool != ppool {
			t.Fatalf("point %d references the wrong problem objects", i)
		}
	}
}

// TestFrontierDeltaResolve: a frontier stored from a capped sweep only
// partially covers the full range; the full sweep must solve exactly the
// uncovered caps (pinned by the delta-points counter) and still return
// the cold frontier bit-identically — after which the spliced chain
// serves the full range without a solver.
func TestFrontierDeltaResolve(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	p2p := arch.PointToPoint{}
	full := sweepThrough(t, g, pool, p2p, nil, nil, 0)
	if len(full) < 2 {
		t.Fatalf("workload too small for a partial-coverage split (%d points)", len(full))
	}
	// Start the stored sweep one step below the first point's cost: its
	// chain is exactly the full chain minus the head point.
	mid := full[0].Cost() - 1

	tel := telemetry.New(nil)
	fs := newFrontierStore(t, FrontierOptions{Telemetry: tel})
	p := mustProbe(t, Request{Graph: g, Pool: pool, Topo: p2p})
	part := sweepThrough(t, g, pool, p2p, fs.View(p, 1, mid), tel, mid)
	samePoints(t, full[1:], part)

	tel2 := telemetry.New(nil)
	fs.tel = tel2
	merged := sweepThrough(t, g, pool, p2p, fs.View(p, 1, 0), tel2, 0)
	samePoints(t, full, merged)
	if got := tel2.Get(telemetry.CtrFrontierPartialHits); got != 1 {
		t.Fatalf("frontier_partial_hits = %d, want 1", got)
	}
	if got := tel2.Get(telemetry.CtrFrontierDeltaPoints); got != 1 {
		t.Fatalf("frontier_delta_points = %d, want 1 (only the head point was uncovered)", got)
	}
	if w := solverWork(tel2); w == 0 {
		t.Fatal("delta sweep reported no solver work but had an uncovered cap")
	}

	// The merge spliced the head point in: the full range now serves
	// without any solver work at all.
	tel3 := telemetry.New(nil)
	fs.tel = tel3
	again := sweepThrough(t, g, pool, p2p, fs.View(p, 1, 0), tel3, 0)
	samePoints(t, full, again)
	if w := solverWork(tel3); w != 0 {
		t.Fatalf("post-splice sweep did solver work (%d nodes), want 0", w)
	}
	if got := tel3.Get(telemetry.CtrFrontierHits); got != 1 {
		t.Fatalf("frontier_hits = %d, want 1", got)
	}
}

// TestFrontierPersistRoundTrip: a stored frontier (whose head point
// carries a non-finite +Inf cap from the uncapped start) survives a
// restart through the JSONL spill and serves a repeat sweep with zero
// solver invocations.
func TestFrontierPersistRoundTrip(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	p2p := arch.PointToPoint{}
	path := filepath.Join(t.TempDir(), "frontiers.jsonl")

	fs1 := newFrontierStore(t, FrontierOptions{PersistPath: path})
	p := mustProbe(t, Request{Graph: g, Pool: pool, Topo: p2p})
	cold := sweepThrough(t, g, pool, p2p, fs1.View(p, 1, 0), nil, 0)
	if err := fs1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	tel := telemetry.New(nil)
	fs2 := newFrontierStore(t, FrontierOptions{PersistPath: path, Telemetry: tel})
	restored, skipped := fs2.Loaded()
	if restored != 1 || skipped != 0 {
		t.Fatalf("Loaded = (%d, %d), want (1, 0)", restored, skipped)
	}
	warm := sweepThrough(t, g, pool, p2p, fs2.View(p, 1, 0), tel, 0)
	samePoints(t, cold, warm)
	if w := solverWork(tel); w != 0 {
		t.Fatalf("restored sweep did solver work (%d nodes), want 0", w)
	}
	if got := tel.Get(telemetry.CtrFrontierHits); got != 1 {
		t.Fatalf("frontier_hits = %d, want 1", got)
	}
}

// TestFrontierPersistTornTail: a crash mid-append leaves a partial last
// line with no newline. The next load must skip it and cut it off, so a
// frontier stored after that restart survives the restart after it.
func TestFrontierPersistTornTail(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	p2p, bus := arch.PointToPoint{}, arch.Bus{}
	path := filepath.Join(t.TempDir(), "frontiers.jsonl")

	fs1 := newFrontierStore(t, FrontierOptions{PersistPath: path})
	pp := mustProbe(t, Request{Graph: g, Pool: pool, Topo: p2p})
	sweepThrough(t, g, pool, p2p, fs1.View(pp, 1, 0), nil, 0)
	fs1.Close()
	appendRaw(t, path, `{"v":1,"kind":"frontier","spec":`)

	fs2 := newFrontierStore(t, FrontierOptions{PersistPath: path})
	if restored, skipped := fs2.Loaded(); restored != 1 || skipped != 1 {
		t.Fatalf("Loaded = (%d, %d), want (1, 1)", restored, skipped)
	}
	pb := mustProbe(t, Request{Graph: g, Pool: pool, Topo: bus})
	cold := sweepThrough(t, g, pool, bus, fs2.View(pb, 1, 0), nil, 0)
	fs2.Close()

	tel := telemetry.New(nil)
	fs3 := newFrontierStore(t, FrontierOptions{PersistPath: path, Telemetry: tel})
	if restored, skipped := fs3.Loaded(); restored != 2 || skipped != 0 {
		t.Fatalf("Loaded = (%d, %d), want (2, 0)", restored, skipped)
	}
	warm := sweepThrough(t, g, pool, bus, fs3.View(pb, 1, 0), tel, 0)
	samePoints(t, cold, warm)
	if w := solverWork(tel); w != 0 {
		t.Fatalf("frontier stored after the torn tail was lost (%d solver nodes)", w)
	}
}

// TestFrontierTerminalProof: a sweep whose start cap is below the
// cheapest feasible design stores a pure terminal proof (no points); a
// repeat sweep is answered "empty, done" without a solver, and the proof
// survives a restart.
func TestFrontierTerminalProof(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	p2p := arch.PointToPoint{}
	full := sweepThrough(t, g, pool, p2p, nil, nil, 0)
	below := full[len(full)-1].Cost() - 1 // below the cheapest feasible cost
	if below <= 0 {
		t.Skip("cheapest design costs <= 1; no infeasible positive cap exists")
	}
	path := filepath.Join(t.TempDir(), "frontiers.jsonl")

	tel := telemetry.New(nil)
	fs := newFrontierStore(t, FrontierOptions{Telemetry: tel, PersistPath: path})
	p := mustProbe(t, Request{Graph: g, Pool: pool, Topo: p2p})
	if pts := sweepThrough(t, g, pool, p2p, fs.View(p, 1, below), tel, below); len(pts) != 0 {
		t.Fatalf("sweep below min cost returned %d points, want 0", len(pts))
	}
	if fs.Len() != 1 {
		t.Fatalf("terminal proof was not stored (len %d)", fs.Len())
	}

	tel2 := telemetry.New(nil)
	fs.tel = tel2
	if pts := sweepThrough(t, g, pool, p2p, fs.View(p, 1, below), tel2, below); len(pts) != 0 {
		t.Fatalf("repeat sweep returned %d points, want 0", len(pts))
	}
	if w := solverWork(tel2); w != 0 {
		t.Fatalf("repeat infeasible sweep did solver work (%d nodes), want 0", w)
	}
	if got := tel2.Get(telemetry.CtrFrontierHits); got != 1 {
		t.Fatalf("frontier_hits = %d, want 1", got)
	}
	fs.Close()

	fs2 := newFrontierStore(t, FrontierOptions{PersistPath: path})
	if restored, _ := fs2.Loaded(); restored != 1 {
		t.Fatalf("terminal proof did not survive restart (restored %d)", restored)
	}
}
