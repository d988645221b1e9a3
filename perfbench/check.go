package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"sos"
	"sos/internal/arch"
	"sos/internal/expts"
	"sos/internal/schedule"
	"sos/internal/sim"
	"sos/internal/taskgraph"
)

// tol is the absolute tolerance of every objective comparison.
const tol = 1e-6

// checker verifies the outputs of every workload. With a tracer it
// records the validation and replay calls as spans of the operation.
type checker struct {
	tr *tracer
}

// design checks one returned design: it must pass schedule.Validate and
// replay in sim to exactly its own predicted makespan.
func (c checker) design(d *schedule.Design, op, parent int) error {
	if d == nil {
		return fmt.Errorf("no design")
	}
	var err error
	c.tr.call("schedule.Validate", op, parent, func() { err = d.Validate(nil) })
	if err != nil {
		return fmt.Errorf("design fails validation: %w", err)
	}
	var trace *sim.Trace
	c.tr.call("sim.Replay", op, parent, func() { trace, err = sim.Replay(d) })
	if err != nil {
		return fmt.Errorf("design fails replay: %w", err)
	}
	if math.Abs(trace.Makespan-d.Makespan) > tol {
		return fmt.Errorf("replayed makespan %g, design predicts %g", trace.Makespan, d.Makespan)
	}
	return nil
}

// wantFrontier is the Example 1 frontier a sweep starting at cost cap
// startCap must return (startCap <= 0 sweeps the whole frontier): Table
// II, extended by the uniprocessor point both exact engines also find.
func wantFrontier(startCap float64) []expts.ParetoPoint {
	var out []expts.ParetoPoint
	for _, p := range expts.Table2Full {
		if startCap <= 0 || p.Cost <= startCap+tol {
			out = append(out, p)
		}
	}
	return out
}

// frontier checks a swept frontier point by point against want. Every
// point must be certified optimal and its design must check.
func (c checker) frontier(pts []sos.FrontierPoint, want []expts.ParetoPoint, op, parent int) error {
	if len(pts) != len(want) {
		return fmt.Errorf("frontier has %d points, want %d", len(pts), len(want))
	}
	for i, p := range pts {
		if math.Abs(p.Cost-want[i].Cost) > tol || math.Abs(p.Perf-want[i].Perf) > tol {
			return fmt.Errorf("frontier point %d is (%g, %g), want (%g, %g)", i, p.Cost, p.Perf, want[i].Cost, want[i].Perf)
		}
		if p.Status != sos.StatusOptimal {
			return fmt.Errorf("frontier point %d is %s, not a proof", i, p.Status)
		}
		if err := c.design(p.Design, op, parent); err != nil {
			return fmt.Errorf("frontier point %d: %w", i, err)
		}
	}
	return nil
}

// request is what the sosd-mixed checker knows about one request: the
// problem it carries (decoded once, at set-up) and what a correct
// answer looks like.
type request struct {
	kind reqKind
	path string
	body []byte
	doc  json.RawMessage // the spec document inside body
	in   *instance       // the generated problem doc encodes
	// g and pool are doc as the server decodes it; answers name their
	// subtasks and processors in these terms.
	g       *taskgraph.Graph
	pool    *arch.Instances
	costCap float64
	// makespan and minCost are the reference optimum of a hot request
	// and that optimal design's cost.
	makespan, minCost float64
	// frontier is the expected answer of a sweep request.
	frontier []expts.ParetoPoint
}

type reqKind int

const (
	reqHot reqKind = iota
	reqMiss
	reqSweep
)

func (k reqKind) String() string { return [...]string{"hot", "miss", "sweep"}[k] }

// wireResponse is the part of a sosd response the checker reads.
type wireResponse struct {
	Status   string `json:"status"`
	Degraded bool   `json:"degraded"`
	Error    string `json:"error"`
	Result   *struct {
		Status string          `json:"status"`
		Design json.RawMessage `json:"design"`
	} `json:"result"`
	Frontier []struct {
		Cost   float64         `json:"cost"`
		Perf   float64         `json:"perf"`
		Status string          `json:"status"`
		Design json.RawMessage `json:"design"`
	} `json:"frontier"`
	QueuedSeconds float64 `json:"queued_seconds"`
	SolveSeconds  float64 `json:"solve_seconds"`
}

// response checks one sosd answer. A refusal (shed, draining), an
// error, a degraded answer or a non-proof is a failure, as is any
// design that does not decode, validate and replay, a hot answer that
// misses its reference optimum and a frontier that is not Table II.
func (c checker) response(code int, body []byte, req *request, op, parent int) (*wireResponse, error) {
	var resp wireResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("%s: HTTP %d, undecodable body: %v", req.kind, code, err)
	}
	if code != http.StatusOK {
		return &resp, fmt.Errorf("%s: HTTP %d, status %q: %s", req.kind, code, resp.Status, resp.Error)
	}
	if resp.Status != sos.StatusOptimal.String() || resp.Degraded {
		return &resp, fmt.Errorf("%s: status %q (degraded %v), want a proof: %s", req.kind, resp.Status, resp.Degraded, resp.Error)
	}
	decode := func(raw json.RawMessage) (*schedule.Design, error) {
		return schedule.DecodeDesign(raw, req.g, req.pool, arch.PointToPoint{})
	}
	if req.kind == reqSweep {
		pts := make([]sos.FrontierPoint, len(resp.Frontier))
		for i, p := range resp.Frontier {
			d, err := decode(p.Design)
			if err != nil {
				return &resp, fmt.Errorf("sweep point %d: %w", i, err)
			}
			st := sos.StatusFeasible
			if p.Status == sos.StatusOptimal.String() {
				st = sos.StatusOptimal
			}
			pts[i] = sos.FrontierPoint{Design: d, Cost: p.Cost, Perf: p.Perf, Status: st}
		}
		if err := c.frontier(pts, req.frontier, op, parent); err != nil {
			return &resp, fmt.Errorf("sweep: %w", err)
		}
		return &resp, nil
	}
	if resp.Result == nil || resp.Result.Status != sos.StatusOptimal.String() {
		return &resp, fmt.Errorf("%s: no optimal result", req.kind)
	}
	d, err := decode(resp.Result.Design)
	if err != nil {
		return &resp, fmt.Errorf("%s: %w", req.kind, err)
	}
	if err := c.design(d, op, parent); err != nil {
		return &resp, fmt.Errorf("%s: %w", req.kind, err)
	}
	if req.costCap > 0 && d.Cost > req.costCap+tol {
		return &resp, fmt.Errorf("%s: design cost %g exceeds cap %g", req.kind, d.Cost, req.costCap)
	}
	if req.kind == reqHot && math.Abs(d.Makespan-req.makespan) > tol {
		return &resp, fmt.Errorf("hot: makespan %g, reference optimum %g", d.Makespan, req.makespan)
	}
	return &resp, nil
}
