package main

import (
	"context"
	"fmt"

	"sos"
	"sos/internal/lp"
	"sos/internal/milp"
	"sos/internal/telemetry"
)

// runPaperMILP is the paper-milp workload: one closed-loop caller runs
// cold sos.Frontier sweeps of Example 1 with the paper's MILP engine and
// default options (sequential sweep, auto LP kernel, no cache). Each
// operation uses the next seeded relabeling of the problem, and every
// frontier must reproduce Table II with designs that validate and replay.
func runPaperMILP(cfg config) (*outcome, error) {
	labelings, setup, err := newSetup(func() ([]*instance, error) {
		return paperSetup(context.Background(), cfg.seed)
	}, func([]*instance) {})
	if err != nil {
		return nil, err
	}
	return closedLoop{
		opSpan: "sos.Frontier", sweepSpan: "sos.Frontier", inputs: len(labelings),
		op: func(ctx context.Context, i int, tel *telemetry.Collector) (func(checker, int) error, error) {
			in := labelings[i%len(labelings)]
			pts, err := sos.Frontier(ctx, sos.Spec{Graph: in.g, Library: in.lib, Pool: in.pool,
				Engine: sos.EngineMILP, Telemetry: tel})
			return func(chk checker, parent int) error {
				return chk.frontier(pts, wantFrontier(0), i, parent)
			}, err
		},
		split: func(i int) splitInputs {
			return splitInputs{in: labelings[i%len(labelings)], milp: &milp.Options{}, lp: &lp.Options{}}
		},
	}.run(cfg, setup)
}

// paperSetup generates the run's labelings of Example 1 and, as the
// reference, sweeps each one with the combinatorial engine: the
// relabeled problem must still have Table II as its frontier,
// independently of the MILP under measurement.
func paperSetup(ctx context.Context, seed int64) ([]*instance, error) {
	out := make([]*instance, len(subtaskPerms))
	chk := checker{}
	for i := range out {
		in, err := paperLabeling(seed, i)
		if err != nil {
			return nil, err
		}
		pts, err := sos.Frontier(ctx, sos.Spec{Graph: in.g, Library: in.lib, Pool: in.pool, Engine: sos.EngineCombinatorial})
		if err == nil {
			err = chk.frontier(pts, wantFrontier(0), i, -1)
		}
		if err != nil {
			return nil, fmt.Errorf("reference sweep of labeling %d: %w", i, err)
		}
		out[i] = in
	}
	return out, nil
}
