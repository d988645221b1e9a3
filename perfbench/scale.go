package main

import (
	"context"
	"fmt"
	"math"

	"sos"
	"sos/internal/lp"
	"sos/internal/milp"
	"sos/internal/pareto"
	"sos/internal/telemetry"
)

// scaleCase is one structured-scale corpus instance and its reference
// optimum.
type scaleCase struct {
	in       *instance
	makespan float64
}

// runStructuredScale is the structured-scale workload: one closed-loop
// caller runs cold sos.Synthesize calls (MILP engine, sparse LP kernel,
// presolve, root cuts) over a seeded corpus of forced-mapping
// series-parallel and fork-join instances of 200-300 subtasks. Every
// answer must be optimal, equal the instance's critical-path optimum,
// and validate and replay.
func runStructuredScale(cfg config) (*outcome, error) {
	corpus, setup, err := newSetup(func() ([]scaleCase, error) {
		return scaleSetup(cfg.seed)
	}, func([]scaleCase) {})
	if err != nil {
		return nil, err
	}
	order := scaleOrder(cfg.seed)
	at := func(i int) scaleCase { return corpus[order[i%len(order)]] }
	lpOpts := &lp.Options{Kernel: lp.KernelSparse, Presolve: true}
	return closedLoop{
		opSpan: "sos.Synthesize", sweepSpan: "pareto.Sweep", inputs: len(corpus),
		op: func(ctx context.Context, i int, tel *telemetry.Collector) (func(checker, int) error, error) {
			c := at(i)
			res, err := sos.Synthesize(ctx, sos.Spec{Graph: c.in.g, Library: c.in.lib, Pool: c.in.pool,
				Engine: sos.EngineMILP, LPKernel: sos.LPKernelSparse, LPPresolve: true, RootCuts: true,
				Telemetry: tel})
			return func(chk checker, parent int) error {
				return checkScale(chk, res, c, i, parent)
			}, err
		},
		split: func(i int) splitInputs {
			return splitInputs{in: at(i).in, lp: lpOpts,
				milp:  &milp.Options{RootCuts: true, LP: lpOpts},
				sweep: &pareto.Options{Engine: pareto.EngineCombinatorial}}
		},
	}.run(cfg, setup)
}

// checkScale requires a proof whose design reaches the critical-path
// optimum and validates and replays.
func checkScale(chk checker, res *sos.Result, c scaleCase, op, parent int) error {
	if res.Status != sos.StatusOptimal {
		return fmt.Errorf("status %s, want optimal", res.Status)
	}
	if err := chk.design(res.Design, op, parent); err != nil {
		return err
	}
	if math.Abs(res.Design.Makespan-c.makespan) > tol {
		return fmt.Errorf("makespan %g, critical-path optimum %g", res.Design.Makespan, c.makespan)
	}
	return nil
}

// scaleSetup generates the corpus and each instance's reference optimum.
func scaleSetup(seed int64) ([]scaleCase, error) {
	out := make([]scaleCase, len(scaleSlots))
	for j := range out {
		in, err := scaleInstance(seed, j)
		if err != nil {
			return nil, err
		}
		mk, err := forcedMakespan(in)
		if err != nil {
			return nil, err
		}
		out[j] = scaleCase{in: in, makespan: mk}
	}
	return out, nil
}
