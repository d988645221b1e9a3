package main

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"sos"
	"sos/internal/arch"
	"sos/internal/exact"
	"sos/internal/expts"
	"sos/internal/schedule"
)

// example1Design solves Example 1 under a cost cap with the exact engine.
func example1Design(t *testing.T, costCap float64) *schedule.Design {
	t.Helper()
	g, lib := expts.Example1()
	r, err := exact.Synthesize(context.Background(), g, expts.Example1Pool(lib), arch.PointToPoint{}, exact.Options{CostCap: costCap})
	if err != nil || r.Design == nil {
		t.Fatalf("solving Example 1: %v", err)
	}
	return r.Design
}

func TestCheckerAcceptsCorrectOutputs(t *testing.T) {
	chk := checker{}
	if err := chk.design(example1Design(t, 7), 0, -1); err != nil {
		t.Fatalf("correct design rejected: %v", err)
	}
	g, lib := expts.Example1()
	pts, err := sos.Frontier(context.Background(), sos.Spec{Graph: g, Library: lib, Pool: expts.Example1Pool(lib)})
	if err != nil {
		t.Fatal(err)
	}
	if err := chk.frontier(pts, wantFrontier(0), 0, -1); err != nil {
		t.Fatalf("correct frontier rejected: %v", err)
	}
	if err := chk.frontier(pts[2:], wantFrontier(7), 0, -1); err != nil {
		t.Fatalf("correct frontier from cap 7 rejected: %v", err)
	}
}

// TestCheckerCountsFailures feeds the checker a design with one shifted
// start time, a frontier with one wrong point and a shed response, and
// requires each to count as one failed operation.
func TestCheckerCountsFailures(t *testing.T) {
	chk := checker{}
	shifted := *example1Design(t, 7)
	shifted.Assignments = append([]schedule.Assignment(nil), shifted.Assignments...)
	shifted.Assignments[0].Start += 0.5

	g, lib := expts.Example1()
	pts, err := sos.Frontier(context.Background(), sos.Spec{Graph: g, Library: lib, Pool: expts.Example1Pool(lib)})
	if err != nil {
		t.Fatal(err)
	}
	wrong := append([]sos.FrontierPoint(nil), pts...)
	wrong[1].Perf += 1

	in, err := paperLabeling(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	shedReq, err := newRequest(reqHot, in, 7)
	if err != nil {
		t.Fatal(err)
	}
	shedBody, _ := json.Marshal(map[string]any{"status": "shed", "error": "queue full", "retry_after_seconds": 1})

	_, shedErr := chk.response(http.StatusTooManyRequests, shedBody, shedReq, 2, -1)
	cases := []struct {
		name string
		err  error
	}{
		{"shifted start", chk.design(&shifted, 0, -1)},
		{"wrong frontier point", chk.frontier(wrong, wantFrontier(0), 1, -1)},
		{"shed response", shedErr},
	}
	out := &outcome{}
	for _, c := range cases {
		out.attempted++
		if c.err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		out.fail("%s: %v", c.name, c.err)
	}
	if out.failed != len(cases) || out.attempted != len(cases) {
		t.Fatalf("failed %d of %d attempted, want every case failed", out.failed, out.attempted)
	}
}
