// Package pareto traces the non-inferior (cost, performance) design set of
// a synthesis instance the way the paper does: "generated by changing the
// constraint value for the total cost of the system, and optimizing the
// overall performance". Each frontier point is made truly non-inferior by a
// second, lexicographic solve that minimizes cost at the achieved
// performance.
package pareto

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"sos/internal/arch"
	"sos/internal/budget"
	"sos/internal/exact"
	"sos/internal/heur"
	"sos/internal/milp"
	"sos/internal/model"
	"sos/internal/race"
	"sos/internal/schedule"
	"sos/internal/taskgraph"
	"sos/internal/telemetry"
)

// Point is one non-inferior design with its search statistics and its
// anytime quality annotation.
type Point struct {
	Design *schedule.Design
	// PerfSol is the min-makespan solve, CostSol the cost-tightening solve.
	PerfSol *milp.Solution
	CostSol *milp.Solution

	// Status records how the point's solve terminated: StatusOptimal for a
	// certified point, StatusFeasible for a budget-limited incumbent.
	Status budget.Status
	// Gap is the relative optimality gap of a StatusFeasible point
	// (+Inf when no lower bound is known, e.g. heuristic points).
	Gap float64
	// Rung is the degradation-ladder rung that produced the design
	// (RungMILP for an ungoverned MILP sweep, and so on).
	Rung budget.Rung
}

// Cost returns the design's total cost.
func (p Point) Cost() float64 { return p.Design.Cost }

// Perf returns the design's makespan (the paper's "performance").
func (p Point) Perf() float64 { return p.Design.Makespan }

// pointJSON is the wire form of a Point: a scalar summary plus the
// name-referenced design encoding. Gap is a pointer so the non-finite values
// a heuristic point carries (+Inf = "no lower bound known") serialize as
// null instead of failing to encode — encoding/json rejects non-finite
// floats outright.
type pointJSON struct {
	Cost   *float64        `json:"cost"`
	Perf   *float64        `json:"perf"`
	Status string          `json:"status"`
	Rung   string          `json:"rung"`
	Gap    *float64        `json:"gap"`
	Design json.RawMessage `json:"design,omitempty"`
}

// finitePtr returns &v when v is finite, nil otherwise (JSON null).
func finitePtr(v float64) *float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return &v
}

// MarshalJSON emits a JSON-safe view of the point: non-finite Gap values
// become null, and a missing design omits the design/cost/perf fields.
func (p Point) MarshalJSON() ([]byte, error) {
	out := pointJSON{
		Status: p.Status.String(),
		Rung:   p.Rung.String(),
		Gap:    finitePtr(p.Gap),
	}
	if p.Design != nil {
		out.Cost = finitePtr(p.Cost())
		out.Perf = finitePtr(p.Perf())
		enc, err := schedule.EncodeDesign(p.Design)
		if err != nil {
			return nil, err
		}
		out.Design = enc
	}
	return json.Marshal(out)
}

// FrontierSource serves previously proven frontier points into a running
// sweep. Implemented by the cross-request frontier store (internal/cache);
// defined here so the sweep layer stays free of cache dependencies.
//
// The contract mirrors the ε-constraint chain: Serve(w) returns the
// longest stored prefix of the remaining chain starting at cost cap w —
// every returned point must be the certified optimum the sequential sweep
// would have computed at its chain cap, already remapped into the
// requesting instance's frame and validated — plus done=true when the
// store additionally proves the chain terminates after those points
// (the next cap is ≤ 0, or the region at/below the last served cap is
// proven infeasible). Uncovered caps (the delta) are solved normally,
// with Warm offering adjacent stored designs as untrusted incumbents.
type FrontierSource interface {
	Serve(w float64) (pts []Point, done bool)
	// Warm returns up to max stored designs admissible at cap w
	// (cost ≤ w), for seeding delta solves. The designs are untrusted:
	// engines feasibility-vet them before adoption.
	Warm(w float64, max int) []*schedule.Design
}

// maxWarmFrontier bounds the adjacent stored designs a delta solve is
// seeded with; vetting each candidate costs a pass over the model rows.
const maxWarmFrontier = 4

// Engine selects which exact solver traces the frontier.
type Engine int

// Engines.
const (
	// EngineMILP solves each point with the paper's MILP formulation via
	// branch and bound over LP relaxations (internal/model + internal/milp).
	EngineMILP Engine = iota
	// EngineCombinatorial solves each point with the combinatorial branch
	// and bound (internal/exact). Both engines are exact and must agree;
	// the combinatorial one is much faster on the paper's instances.
	EngineCombinatorial
)

// Options configures a sweep.
type Options struct {
	// Engine picks the solver (default EngineMILP, the paper's method).
	Engine Engine
	// MILP budgets each individual MILP solve (EngineMILP only).
	MILP *milp.Options
	// Exact budgets each combinatorial solve (EngineCombinatorial only).
	Exact *exact.Options
	// ModelOpts carries variant switches (memory, no-overlap, ...). Its
	// Objective/CostCap/Deadline fields are managed by the sweep.
	ModelOpts model.Options
	// CostStep is how far below a found design's cost the next cap is set
	// (default 1, matching the paper's unit-cost processors and links).
	CostStep float64
	// MaxPoints caps the frontier size (0 = unlimited).
	MaxPoints int
	// NoIncumbent disables heuristic warm starts.
	NoIncumbent bool
	// StartCap, when positive, begins the sweep at this cost cap instead
	// of an uncapped solve.
	StartCap float64

	// Source, when non-nil, serves previously proven frontier points into
	// the sweep: every chain cap the source covers is answered without a
	// solve, and only the uncovered caps (the delta) are solved, seeded
	// with the source's adjacent designs as untrusted warm incumbents.
	Source FrontierSource

	// SweepWorkers, when > 1 (clamped to GOMAXPROCS), solves frontier
	// points speculatively in parallel: a grid of candidate cost caps
	// (derived from the pool's achievable cost levels) is solved by a
	// worker pool while the true ε-constraint chain is reconciled against
	// completed results, and speculative caps a landed point proves
	// redundant are canceled. At 0 or 1 the same sweep loop solves every chain
	// cap inline, with no workers and no speculative grid. The frontier is
	// identical at every width. See DESIGN.md §10 for the speculation and
	// reuse rules.
	SweepWorkers int

	// Governor, when non-nil, apportions one wall-clock budget across the
	// whole sweep: every individual solve's time limit becomes the tighter
	// of its own TimeLimit and the governor's next slice.
	Governor *budget.Governor
	// Ladder, when non-nil, enables graceful degradation: a point whose
	// exact solve exhausts its slice is retried on the next (cheaper) rung
	// instead of aborting the sweep, and the best incumbent across rungs is
	// kept with a StatusFeasible annotation. Without a ladder the sweep is
	// strict: a point that cannot be certified stops the sweep with a
	// typed budget.ErrExhausted error (wrapping ctx.Err() on cancellation),
	// returning the certified prefix.
	Ladder budget.Ladder

	// Race, when true, solves each frontier point by running the ladder's
	// rungs *concurrently* over a shared incumbent bus instead of walking
	// them in sequence: every entrant publishes each feasible design it
	// finds (feasibility-vetted before adoption), every entrant polls for
	// the others' designs to tighten its own pruning, and the first rung
	// to certify the point (Optimal or Infeasible) wins while the rest
	// are canceled. Where the sequential ladder spends a decaying
	// governor slice per rung, a race gives every rung the same
	// wall-clock window at once. The frontier returned is identical to
	// the sequential ladder's — certified points are value-unique — and
	// racing composes with SweepWorkers (each point's race runs inside
	// its sweep worker). When no Ladder is set, the default ladder for
	// the selected engine is raced.
	Race bool

	// Telemetry, when non-nil, records per-point slice spend, ladder
	// degradations, and dominated-point drops, and is threaded into every
	// engine solve (unless that engine's own options already carry a
	// collector).
	Telemetry *telemetry.Collector

	// shared carries the per-sweep templates and cross-point incumbent
	// pool. It is a pointer so the value copies the ladder walk and the
	// workers make all see one sweep-wide state; set by Sweep and
	// SweepByDeadline.
	shared *sweepShared

	// raceBus/raceRung are set on the per-entrant Options copy during a
	// point race: the engine solvers attach publish/poll hooks for the
	// shared incumbent bus to their first (objective-defining) solve.
	// Nil outside a race.
	raceBus  *race.Bus
	raceRung budget.Rung
}

func (o *Options) costStep() float64 {
	if o != nil && o.CostStep > 0 {
		return o.CostStep
	}
	return 1
}

// solvePointAny solves one frontier point, walking the degradation ladder
// when one is configured: each rung runs under the governor's slice; the
// first rung that certifies the point wins, and otherwise the best
// incumbent across rungs is returned annotated. A proven infeasibility from
// an exact rung ends the point (and the sweep) authoritatively.
func solvePointAny(ctx context.Context, g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology, opts Options, costCap float64) (Point, bool, error) {
	if opts.Race {
		return solvePointRace(ctx, g, pool, topo, opts, costCap)
	}
	// One heuristic memo per point: the MILP warm start and the heuristic
	// ladder rung want the same greedy design, so compute it at most once.
	hm := &heurMemo{}
	if opts.Ladder == nil {
		return solvePoint(ctx, g, pool, topo, opts, costCap, hm)
	}
	var best Point
	for i, r := range opts.Ladder {
		if i > 0 {
			opts.Telemetry.Inc(telemetry.CtrDegrades)
			opts.Telemetry.Emit(telemetry.EvDegrade, 0, costCap, r.String())
		}
		var pt Point
		var infeasible bool
		var err error
		switch r {
		case budget.RungMILP:
			o := opts
			o.Engine = EngineMILP
			pt, infeasible, err = solvePoint(ctx, g, pool, topo, o, costCap, hm)
		case budget.RungCombinatorial:
			pt, infeasible, err = solvePointExact(ctx, g, pool, topo, opts, costCap)
		case budget.RungHeuristic:
			pt = solvePointHeur(g, pool, topo, opts, costCap, hm)
		}
		if err != nil {
			return Point{}, false, err
		}
		if infeasible {
			return Point{}, true, nil
		}
		pt.Rung = r
		if pt.Status == budget.StatusOptimal && pt.Design != nil {
			return pt, false, nil
		}
		if pt.Design != nil && (best.Design == nil || pt.Perf() < best.Perf()-1e-9) {
			best = pt
		}
	}
	return best, false, nil
}

// solvePoint runs the lexicographic pair of solves at one cost cap with
// the selected engine. hm memoizes the point's heuristic design so the
// warm-start path and a later heuristic rung share one computation.
func solvePoint(ctx context.Context, g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology, opts Options, costCap float64, hm *heurMemo) (Point, bool, error) {
	if opts.Engine == EngineCombinatorial {
		return solvePointExact(ctx, g, pool, topo, opts, costCap)
	}
	m, err := opts.shared.perfAt(costCap)
	if err != nil {
		return Point{}, false, err
	}

	milpOpts := *opts.MILP
	if milpOpts.Telemetry == nil {
		milpOpts.Telemetry = opts.Telemetry
	}
	milpOpts.TimeLimit = opts.Governor.Limit(milpOpts.TimeLimit)
	if !opts.NoIncumbent {
		if d := hm.get(g, pool, topo, costCap); d != nil {
			if inc, err2 := m.IncumbentVector(d); err2 == nil {
				milpOpts.Incumbent = inc
			}
		}
	}
	// Cross-point seeding: designs found at other caps are offered as
	// untrusted candidates; the solver keeps the best one feasible under
	// this cap.
	milpOpts.IncumbentPool = opts.shared.candidates()
	if opts.Source != nil {
		// Delta-resolve seeding: stored designs adjacent to this cap join
		// the untrusted pool; the solver keeps the best one feasible here.
		for _, d := range opts.Source.Warm(costCap, maxWarmFrontier) {
			if inc, err2 := m.IncumbentVector(d); err2 == nil {
				milpOpts.IncumbentPool = append(milpOpts.IncumbentPool, inc)
			}
		}
	}
	if opts.raceBus != nil {
		attachMILPBus(&milpOpts, m, opts.raceBus, opts.raceRung)
	}
	design, sol, err := m.Solve(ctx, &milpOpts)
	if err != nil {
		return Point{}, false, err
	}
	if design != nil {
		if inc, err2 := m.IncumbentVector(design); err2 == nil {
			opts.shared.addIncumbent(inc)
		}
	}
	switch sol.Status {
	case milp.Infeasible:
		return Point{}, true, nil
	case milp.Optimal:
	case milp.Feasible:
		// Budget-limited incumbent: the tightening solve's premise (that
		// the makespan is optimal) is unproven, so skip it and annotate.
		if design == nil {
			return Point{Status: noSolutionStatus(ctx)}, false, nil
		}
		if err := design.Validate(&schedule.ValidateOptions{NoOverlapIO: opts.ModelOpts.NoOverlapIO}); err != nil {
			return Point{}, false, fmt.Errorf("pareto: cap %g produced invalid design: %w", costCap, err)
		}
		return Point{Design: design, PerfSol: sol, Status: budget.StatusFeasible, Gap: sol.Gap}, false, nil
	case milp.NoSolution:
		return Point{Status: noSolutionStatus(ctx)}, false, nil
	default:
		return Point{}, false, fmt.Errorf("pareto: cap %g relaxation unbounded (modeling bug?)", costCap)
	}
	if design == nil {
		return Point{}, false, fmt.Errorf("pareto: optimal status without a design at cap %g", costCap)
	}

	// Lexicographic tightening: cheapest system achieving this makespan.
	cm, err := opts.shared.costAt(design.Makespan)
	if err != nil {
		return Point{}, false, err
	}
	costOpts := *opts.MILP
	if costOpts.Telemetry == nil {
		costOpts.Telemetry = opts.Telemetry
	}
	costOpts.TimeLimit = opts.Governor.Limit(costOpts.TimeLimit)
	if inc, err2 := cm.IncumbentVector(design); err2 == nil {
		costOpts.Incumbent = inc
	}
	costOpts.IncumbentPool = opts.shared.candidates()
	cheap, costSol, err := cm.Solve(ctx, &costOpts)
	if err != nil {
		return Point{}, false, err
	}
	if costSol.Status == milp.Optimal && cheap != nil {
		design = cheap
		if inc, err2 := cm.IncumbentVector(cheap); err2 == nil {
			opts.shared.addIncumbent(inc)
		}
	}
	if err := design.Validate(&schedule.ValidateOptions{NoOverlapIO: opts.ModelOpts.NoOverlapIO}); err != nil {
		return Point{}, false, fmt.Errorf("pareto: cap %g produced invalid design: %w", costCap, err)
	}
	return Point{Design: design, PerfSol: sol, CostSol: costSol, Status: budget.StatusOptimal}, false, nil
}

// solvePointExact is solvePoint on the combinatorial engine.
func solvePointExact(ctx context.Context, g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology, opts Options, costCap float64) (Point, bool, error) {
	eo := exact.Options{}
	if opts.Exact != nil {
		eo = *opts.Exact
	}
	if eo.Telemetry == nil {
		eo.Telemetry = opts.Telemetry
	}
	eo.Objective = exact.MinMakespan
	eo.CostCap = costCap
	eo.Deadline = 0
	eo.TimeLimit = opts.Governor.Limit(eo.TimeLimit)
	if eo.Warm == nil && opts.Source != nil {
		// Delta-resolve seeding: the engine vets the design before adoption.
		if ws := opts.Source.Warm(costCap, 1); len(ws) > 0 {
			eo.Warm = ws[0]
		}
	}
	if opts.raceBus != nil {
		attachExactBus(&eo, opts.raceBus, opts.raceRung)
	}
	res, err := exact.Synthesize(ctx, g, pool, topo, eo)
	if err != nil {
		return Point{}, false, err
	}
	switch res.Status {
	case budget.StatusInfeasible:
		return Point{}, true, nil
	case budget.StatusOptimal:
	case budget.StatusFeasible:
		design := res.Design
		if err := design.Validate(&schedule.ValidateOptions{NoOverlapIO: opts.ModelOpts.NoOverlapIO}); err != nil {
			return Point{}, false, fmt.Errorf("pareto: cap %g produced invalid design: %w", costCap, err)
		}
		return Point{Design: design, Status: budget.StatusFeasible, Gap: res.Gap}, false, nil
	default:
		return Point{Status: res.Status}, false, nil
	}
	design := res.Design

	co := eo
	co.Objective = exact.MinCost
	co.Deadline = design.Makespan + 1e-9
	co.CostCap = 0
	co.TimeLimit = opts.Governor.Limit(co.TimeLimit)
	// The tightening solve minimizes on the other axis: its incumbents
	// are not comparable on the bus, so it runs unhooked.
	co.OnIncumbent, co.Foreign = nil, nil
	cres, err := exact.Synthesize(ctx, g, pool, topo, co)
	if err != nil {
		return Point{}, false, err
	}
	if cres.Optimal && cres.Design != nil {
		design = cres.Design
	}
	if err := design.Validate(&schedule.ValidateOptions{NoOverlapIO: opts.ModelOpts.NoOverlapIO}); err != nil {
		return Point{}, false, fmt.Errorf("pareto: cap %g produced invalid design: %w", costCap, err)
	}
	return Point{Design: design, Status: budget.StatusOptimal}, false, nil
}

// solvePointHeur is the terminal ladder rung: the greedy synthesizer's
// design, validated, annotated StatusFeasible with an unknown (+Inf) gap.
// It proves nothing — a zero Point here does not mean infeasible.
func solvePointHeur(g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology, opts Options, costCap float64, hm *heurMemo) Point {
	d := hm.get(g, pool, topo, costCap)
	if d == nil {
		return Point{Status: budget.StatusBudgetExhausted}
	}
	if err := d.Validate(&schedule.ValidateOptions{NoOverlapIO: opts.ModelOpts.NoOverlapIO}); err != nil {
		return Point{Status: budget.StatusBudgetExhausted}
	}
	return Point{Design: d, Status: budget.StatusFeasible, Gap: math.Inf(1)}
}

// noSolutionStatus classifies a budget exit that produced no incumbent.
func noSolutionStatus(ctx context.Context) budget.Status {
	if ctx != nil && ctx.Err() != nil {
		return budget.StatusCanceled
	}
	return budget.StatusBudgetExhausted
}

// heurMemo caches one frontier point's heuristic design so that the MILP
// warm-start path and the heuristic ladder rung — which ask for the same
// cap — run the greedy synthesizer once instead of twice. A nil memo
// degenerates to an uncached call.
type heurMemo struct {
	done   bool
	design *schedule.Design
}

func (hm *heurMemo) get(g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology, costCap float64) *schedule.Design {
	if hm == nil {
		return heuristicDesign(g, pool, topo, costCap)
	}
	if !hm.done {
		hm.design = heuristicDesign(g, pool, topo, costCap)
		hm.done = true
	}
	return hm.design
}

// heuristicDesign runs the greedy synthesizer under a cost cap and remaps
// its output onto the sweep's instance pool, or nil when nothing valid is
// available within the cap. Shared by the warm-start path and the
// heuristic ladder rung.
func heuristicDesign(g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology, costCap float64) *schedule.Design {
	// The synthesizer may not use more instances of a type than the
	// pool offers, or the remap back onto the pool fails.
	maxCounts := make([]int, pool.Library().NumTypes())
	for _, p := range pool.Procs() {
		maxCounts[p.Type]++
	}
	hd, err := heur.Synthesize(g, pool.Library(), topo, heur.SynthOptions{CostCap: costCap, MaxCounts: maxCounts})
	if err != nil {
		return nil
	}
	remapped, err := schedule.RemapPool(hd, pool)
	if err != nil {
		return nil
	}
	canon, err := schedule.Canonicalize(remapped)
	if err != nil {
		return nil
	}
	if canon.Validate(nil) != nil {
		return nil
	}
	return canon
}

// SweepByDeadline traces the same non-inferior set from the opposite
// direction: starting from the loosest interesting deadline (the cheapest
// system's makespan), repeatedly minimize cost subject to a deadline just
// under the previous design's makespan. This is the natural mode for a
// designer with timing constraints; on a complete sweep it yields the
// same frontier as Sweep, which the tests exploit as a consistency check.
// PerfStep is how far below the previous makespan each new deadline sits
// (default 1e-3). It must exceed the engine's numerical noise — the MILP's
// accumulated simplex drift is of order 1e-6·T_M, so steps at or below
// that scale can re-admit the previous design; the sweep detects that as
// a lack of progress and reports an error rather than looping.
func SweepByDeadline(ctx context.Context, g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology, opts Options, perfStep float64) ([]Point, error) {
	if opts.MILP == nil {
		opts.MILP = &milp.Options{}
	}
	if perfStep <= 0 {
		perfStep = 1e-3
	}
	// The loosest deadline worth considering: the serial time of the
	// slowest-capable mapping, which every feasible instance can meet.
	deadline := model.BigM(g, pool, topo)
	lastPerf := math.Inf(1)
	var points []Point
	opts.shared = newSweepShared(g, pool, topo, opts.ModelOpts)
	for {
		if opts.MaxPoints > 0 && len(points) >= opts.MaxPoints {
			return points, nil
		}
		if opts.Ladder == nil && opts.Governor.Exhausted() {
			return points, budget.Exhausted(ctx, "pareto: sweep budget exhausted before deadline %g", deadline)
		}
		tel := opts.Telemetry
		slice := opts.Governor.Slice()
		start := time.Now()
		pt, infeasible, err := solveDeadlinePointAny(ctx, g, pool, topo, opts, deadline)
		spend := time.Since(start)
		if err != nil {
			return points, err
		}
		tel.Emit(telemetry.EvPoint, 0, spend.Seconds(), pt.Status.String())
		if slice > 0 && spend < slice {
			tel.Inc(telemetry.CtrRollovers)
			tel.Emit(telemetry.EvRollover, 0, (slice - spend).Seconds(), "")
		}
		if infeasible {
			return points, nil
		}
		if pt.Design == nil {
			return points, budget.Exhausted(ctx, "pareto: no design within budget at deadline %g (%v)", deadline, pt.Status)
		}
		if pt.Perf() >= lastPerf {
			if pt.Status != budget.StatusOptimal {
				// A degraded point that fails to improve on its
				// predecessor is starvation, not solver noise.
				return points, budget.Exhausted(ctx, "pareto: deadline sweep out of budget at makespan %g", pt.Perf())
			}
			return points, fmt.Errorf("pareto: deadline sweep stalled at makespan %g (step %g is below solver noise)",
				pt.Perf(), perfStep)
		}
		lastPerf = pt.Perf()
		// This sweep runs from slow to fast, so a new (faster) point that is
		// no costlier dominates the trailing point(s).
		points = appendPoint(tel, points, pt, Point.Cost)
		if pt.Status != budget.StatusOptimal && opts.Ladder == nil {
			return points, budget.Exhausted(ctx, "pareto: deadline %g not proven optimal (%v, gap %.3g)",
				deadline, pt.Status, pt.Gap)
		}
		deadline = pt.Perf() - perfStep
		if deadline <= 0 {
			return points, nil
		}
	}
}

// solveDeadlinePointAny walks the degradation ladder for one deadline
// point. The heuristic rung is skipped here: the greedy synthesizer has no
// deadline mode, so the ladder bottoms out at the combinatorial engine
// under its floor slice.
func solveDeadlinePointAny(ctx context.Context, g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology, opts Options, deadline float64) (Point, bool, error) {
	if opts.Race {
		return solveDeadlinePointRace(ctx, g, pool, topo, opts, deadline)
	}
	if opts.Ladder == nil {
		return solveDeadlinePoint(ctx, g, pool, topo, opts, deadline)
	}
	var best Point
	for i, r := range opts.Ladder {
		o := opts
		switch r {
		case budget.RungMILP:
			o.Engine = EngineMILP
		case budget.RungCombinatorial:
			o.Engine = EngineCombinatorial
		default:
			continue // no deadline mode in the heuristic
		}
		if i > 0 {
			opts.Telemetry.Inc(telemetry.CtrDegrades)
			opts.Telemetry.Emit(telemetry.EvDegrade, 0, deadline, r.String())
		}
		pt, infeasible, err := solveDeadlinePoint(ctx, g, pool, topo, o, deadline)
		if err != nil {
			return Point{}, false, err
		}
		if infeasible {
			return Point{}, true, nil
		}
		pt.Rung = r
		if pt.Status == budget.StatusOptimal && pt.Design != nil {
			return pt, false, nil
		}
		if pt.Design != nil && (best.Design == nil || pt.Cost() < best.Cost()-1e-9) {
			best = pt
		}
	}
	return best, false, nil
}

// solveDeadlinePoint minimizes cost under the deadline, then tightens the
// makespan at that cost (the lexicographic mirror of solvePoint).
func solveDeadlinePoint(ctx context.Context, g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology, opts Options, deadline float64) (Point, bool, error) {
	if opts.Engine == EngineCombinatorial {
		eo := exact.Options{}
		if opts.Exact != nil {
			eo = *opts.Exact
		}
		if eo.Telemetry == nil {
			eo.Telemetry = opts.Telemetry
		}
		eo.Objective = exact.MinCost
		eo.Deadline = deadline
		eo.CostCap = 0
		eo.TimeLimit = opts.Governor.Limit(eo.TimeLimit)
		if opts.raceBus != nil {
			attachExactBus(&eo, opts.raceBus, opts.raceRung)
		}
		res, err := exact.Synthesize(ctx, g, pool, topo, eo)
		if err != nil {
			return Point{}, false, err
		}
		switch res.Status {
		case budget.StatusInfeasible:
			return Point{}, true, nil
		case budget.StatusOptimal:
		case budget.StatusFeasible:
			design := res.Design
			if err := design.Validate(&schedule.ValidateOptions{NoOverlapIO: opts.ModelOpts.NoOverlapIO}); err != nil {
				return Point{}, false, err
			}
			return Point{Design: design, Status: budget.StatusFeasible, Gap: res.Gap}, false, nil
		default:
			return Point{Status: res.Status}, false, nil
		}
		design := res.Design
		// Tighten makespan at this cost.
		po := eo
		po.Objective = exact.MinMakespan
		po.CostCap = design.Cost
		po.Deadline = 0
		po.TimeLimit = opts.Governor.Limit(po.TimeLimit)
		// Other-axis tightening solve: runs unhooked (see solvePointExact).
		po.OnIncumbent, po.Foreign = nil, nil
		pres, err := exact.Synthesize(ctx, g, pool, topo, po)
		if err != nil {
			return Point{}, false, err
		}
		if pres.Optimal && pres.Design != nil {
			design = pres.Design
		}
		if err := design.Validate(&schedule.ValidateOptions{NoOverlapIO: opts.ModelOpts.NoOverlapIO}); err != nil {
			return Point{}, false, err
		}
		return Point{Design: design, Status: budget.StatusOptimal}, false, nil
	}

	m, err := opts.shared.costAt(deadline)
	if err != nil {
		return Point{}, false, err
	}
	milpOpts := *opts.MILP
	if milpOpts.Telemetry == nil {
		milpOpts.Telemetry = opts.Telemetry
	}
	milpOpts.TimeLimit = opts.Governor.Limit(milpOpts.TimeLimit)
	if opts.raceBus != nil {
		attachMILPBus(&milpOpts, m, opts.raceBus, opts.raceRung)
	}
	design, sol, err := m.Solve(ctx, &milpOpts)
	if err != nil {
		return Point{}, false, err
	}
	switch sol.Status {
	case milp.Infeasible:
		return Point{}, true, nil
	case milp.Optimal:
	case milp.Feasible:
		if design == nil {
			return Point{Status: noSolutionStatus(ctx)}, false, nil
		}
		if err := design.Validate(&schedule.ValidateOptions{NoOverlapIO: opts.ModelOpts.NoOverlapIO}); err != nil {
			return Point{}, false, err
		}
		return Point{Design: design, CostSol: sol, Status: budget.StatusFeasible, Gap: sol.Gap}, false, nil
	case milp.NoSolution:
		return Point{Status: noSolutionStatus(ctx)}, false, nil
	default:
		return Point{}, false, fmt.Errorf("pareto: deadline %g relaxation unbounded (modeling bug?)", deadline)
	}
	pm, err := opts.shared.perfAt(design.Cost)
	if err != nil {
		return Point{}, false, err
	}
	perfOpts := *opts.MILP
	if perfOpts.Telemetry == nil {
		perfOpts.Telemetry = opts.Telemetry
	}
	perfOpts.TimeLimit = opts.Governor.Limit(perfOpts.TimeLimit)
	if inc, err2 := pm.IncumbentVector(design); err2 == nil {
		perfOpts.Incumbent = inc
	}
	fast, perfSol, err := pm.Solve(ctx, &perfOpts)
	if err != nil {
		return Point{}, false, err
	}
	if perfSol.Status == milp.Optimal && fast != nil {
		design = fast
	}
	if err := design.Validate(&schedule.ValidateOptions{NoOverlapIO: opts.ModelOpts.NoOverlapIO}); err != nil {
		return Point{}, false, err
	}
	return Point{Design: design, PerfSol: perfSol, CostSol: sol, Status: budget.StatusOptimal}, false, nil
}

// Dominates reports whether point a dominates point b (no worse in both
// dimensions, strictly better in at least one).
func Dominates(a, b Point) bool {
	return a.Cost() <= b.Cost() && a.Perf() <= b.Perf() &&
		(a.Cost() < b.Cost() || a.Perf() < b.Perf())
}

// Filter returns the non-dominated subset of points, ordered by ascending
// cost.
func Filter(points []Point) []Point {
	var out []Point
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i != j && (Dominates(q, p) || (q.Cost() == p.Cost() && q.Perf() == p.Perf() && j < i)) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	sortByCost(out)
	return out
}

func sortByCost(points []Point) {
	for i := 1; i < len(points); i++ {
		for j := i; j > 0 && points[j].Cost() < points[j-1].Cost(); j-- {
			points[j], points[j-1] = points[j-1], points[j]
		}
	}
}

// FrontierEquals compares a computed frontier against expected
// (cost, perf) pairs within tol, ignoring order.
func FrontierEquals(points []Point, want [][2]float64, tol float64) error {
	if len(points) != len(want) {
		return fmt.Errorf("pareto: %d frontier points, want %d", len(points), len(want))
	}
	used := make([]bool, len(want))
	for _, p := range points {
		found := false
		for i, w := range want {
			if used[i] {
				continue
			}
			if math.Abs(p.Cost()-w[0]) <= tol && math.Abs(p.Perf()-w[1]) <= tol {
				used[i] = true
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("pareto: unexpected frontier point (cost=%g, perf=%g)", p.Cost(), p.Perf())
		}
	}
	return nil
}
