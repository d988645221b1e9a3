package pareto

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"sos/internal/arch"
	"sos/internal/budget"
	"sos/internal/milp"
	"sos/internal/model"
	"sos/internal/taskgraph"
	"sos/internal/telemetry"
)

// The ε-constraint sweep. The chain is inherently sequential — each
// cap is one cost step below the previous point's cost — but the solution
// at a cap is a step function of the cap: solving at cap Y returns the
// frontier point with the largest frontier cost ≤ Y. The frontier costs
// themselves come from a small, enumerable set (sums of processor and link
// costs), so with SweepWorkers > 1 the chain's future caps are guessed and
// solved concurrently before the chain arrives, and a completed optimal
// solve at cap Z with tightened cost c settles every chain cap in [c, Z].
//
// The caller's goroutine walks the true chain, serving each cap from a
// covering completed job when one exists, waiting on an in-flight job at
// the exact cap, and otherwise solving inline (so correctness never
// depends on the speculation grid). Whenever a point lands, jobs whose
// caps the point proves redundant are canceled and their workers move on.
// At one worker the queue stays empty and every cap is solved inline, so
// the one loop is also the sequential sweep. Either way the frontier —
// points, statuses, order — is the same; only telemetry tells the modes
// apart (a point served by a speculative job carries that job's solve
// duration and no rollover event).

// maxIncumbentPool bounds the cross-point candidate pool offered to each
// MILP solve: feasibility-checking a candidate costs one pass over the
// rows, so an unbounded pool would slowly tax every solve of a long sweep.
const maxIncumbentPool = 32

// maxSpeculativeJobs bounds the dispatch grid; the highest caps (the ones
// the chain reaches first) are kept.
const maxSpeculativeJobs = 64

// sweepShared is the per-sweep state every point solve shares: the two
// MILP templates, built once on first use and retargeted per point with
// SetCostCap/SetDeadline, and the cross-point incumbent pool.
type sweepShared struct {
	g    *taskgraph.Graph
	pool *arch.Instances
	topo arch.Topology
	mo   model.Options

	perfTpl lazyModel // MinMakespan template (placeholder cap row)
	costTpl lazyModel // MinCost template (placeholder deadline row)

	mu   sync.Mutex
	incs [][]float64 // incumbent vectors in the templates' column layout
}

// lazyModel is a template built on its first use, so a sweep whose solves
// never reach the MILP engine builds nothing.
type lazyModel struct {
	once sync.Once
	m    *model.Model
	err  error
}

func newSweepShared(g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology, mo model.Options) *sweepShared {
	return &sweepShared{g: g, pool: pool, topo: topo, mo: mo}
}

// template returns the sweep's template for obj, building it on first
// use with a placeholder cap/deadline row for SetCostCap/SetDeadline to
// retarget.
func (sh *sweepShared) template(obj model.Objective) (*model.Model, error) {
	lm := &sh.perfTpl
	if obj == model.MinCost {
		lm = &sh.costTpl
	}
	lm.once.Do(func() {
		mo := sh.mo
		mo.Objective = obj
		mo.CostCap, mo.Deadline = 0, 0
		if obj == model.MinCost {
			mo.Deadline = 1
		} else {
			mo.CostCap = 1
		}
		lm.m, lm.err = model.Build(sh.g, sh.pool, sh.topo, mo)
	})
	return lm.m, lm.err
}

// perfAt is the MinMakespan model under costCap (≤ 0 = uncapped).
func (sh *sweepShared) perfAt(costCap float64) (*model.Model, error) {
	tpl, err := sh.template(model.MinMakespan)
	if err != nil {
		return nil, err
	}
	return tpl.SetCostCap(costCap)
}

// costAt is the MinCost model under deadline.
func (sh *sweepShared) costAt(deadline float64) (*model.Model, error) {
	tpl, err := sh.template(model.MinCost)
	if err != nil {
		return nil, err
	}
	return tpl.SetDeadline(deadline)
}

// addIncumbent shares a solved design's warm-start vector with every later
// (and concurrent) solve of the sweep. Both templates build identical
// column sets, so one vector serves the perf and cost sides alike.
func (sh *sweepShared) addIncumbent(x []float64) {
	if x == nil {
		return
	}
	sh.mu.Lock()
	if len(sh.incs) < maxIncumbentPool {
		sh.incs = append(sh.incs, x)
	}
	sh.mu.Unlock()
}

func (sh *sweepShared) candidates() [][]float64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.incs) == 0 {
		return nil
	}
	return append([][]float64(nil), sh.incs...)
}

// Sweep traces the non-inferior set from best performance to lowest cost.
// The returned points are ordered by decreasing cost and strictly
// increasing makespan; every point is validated before being returned.
//
// Anytime contract: a point whose solve exhausts its budget but still holds
// an incumbent is appended with a StatusFeasible annotation. Without a
// degradation Ladder the sweep then stops and reports a typed
// budget.ErrExhausted error (wrapping ctx.Err() on cancellation); with a
// Ladder it keeps sweeping on cheaper rungs. A point that yields nothing
// within budget always stops the sweep with the typed error, returning the
// partial frontier.
func Sweep(ctx context.Context, g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology, opts Options) ([]Point, error) {
	if opts.MILP == nil {
		opts.MILP = &milp.Options{}
	}
	// Speculative workers beyond the machine's available parallelism only
	// add scheduling contention and wasted speculative solves.
	if p := runtime.GOMAXPROCS(0); opts.SweepWorkers > p {
		opts.SweepWorkers = p
	}
	// Drain the frontier store before spending anything: a fully covered
	// sweep returns here without a build or a worker, and a covered prefix
	// shifts the start cap so speculation targets only the uncovered region.
	points, costCap, done := drainSource(&opts, nil, opts.StartCap)
	if done {
		return points, nil
	}
	opts.StartCap = costCap
	opts.shared = newSweepShared(g, pool, topo, opts.ModelOpts)
	tel := opts.Telemetry

	q := &specQueue{}
	if opts.SweepWorkers > 1 {
		// The workers start now; the deferred stop joins them on return.
		defer q.speculate(ctx, g, pool, topo, opts)()
	}
	for {
		if opts.MaxPoints > 0 && len(points) >= opts.MaxPoints {
			return points, nil
		}
		if opts.Ladder == nil && opts.Governor.Exhausted() {
			return points, budget.Exhausted(ctx, "pareto: sweep budget exhausted before cap %g", costCap)
		}
		pt, infeasible, err := q.resolve(ctx, g, pool, topo, opts, costCap)
		if err != nil {
			return points, err
		}
		if infeasible {
			return points, nil
		}
		if pt.Design == nil {
			return points, budget.Exhausted(ctx, "pareto: no design within budget at cap %g (%v)", costCap, pt.Status)
		}
		if pt.Status == budget.StatusOptimal {
			q.cancelRedundant(pt.Cost(), costCap)
		}
		points = appendPoint(tel, points, pt, Point.Perf)
		if pt.Status != budget.StatusOptimal && opts.Ladder == nil {
			return points, budget.Exhausted(ctx, "pareto: cap %g not proven optimal (%v, gap %.3g)",
				costCap, pt.Status, pt.Gap)
		}
		costCap = pt.Cost() - opts.costStep()
		if costCap <= 0 {
			return points, nil
		}
		// Mid-chain holes: a partially covered store may resume coverage
		// below a delta-resolved region; drain it before solving.
		if points, costCap, done = drainSource(&opts, points, costCap); done {
			return points, nil
		}
	}
}

// appendPoint appends pt to a frontier walked along axis (Point.Perf for
// the cost-cap chain, Point.Cost for the deadline chain), first dropping
// the trailing points pt dominates. A new point at least as good on the
// walked axis as its predecessor is only possible when an earlier point
// was a degraded (uncertified) incumbent — a certified optimum at a looser
// limit can never lose to any design under a tighter one — so this is
// what enforces the documented frontier invariant under a ladder.
func appendPoint(tel *telemetry.Collector, points []Point, pt Point, axis func(Point) float64) []Point {
	for len(points) > 0 {
		last := points[len(points)-1]
		if axis(pt) > axis(last) {
			break
		}
		points = points[:len(points)-1]
		tel.Inc(telemetry.CtrDominatedDropped)
		tel.Emit(telemetry.EvDominated, 0, axis(last), last.Status.String())
	}
	tel.Inc(telemetry.CtrPoints)
	return append(points, pt)
}

// drainSource appends every stored frontier point covering the chain from
// costCap to points, enforcing the same frontier invariants (MaxPoints,
// dominated-suffix drop, CtrPoints) the solve path does, and returns the
// grown frontier, the next uncovered cap, and done=true when the sweep is
// finished (the store proved the chain complete, the next cap fell ≤ 0, or
// MaxPoints was reached). A frontier already at MaxPoints is left alone.
func drainSource(opts *Options, points []Point, costCap float64) ([]Point, float64, bool) {
	if opts.Source == nil || (opts.MaxPoints > 0 && len(points) >= opts.MaxPoints) {
		return points, costCap, false
	}
	served, done := opts.Source.Serve(costCap)
	for _, pt := range served {
		if opts.MaxPoints > 0 && len(points) >= opts.MaxPoints {
			return points, costCap, true
		}
		points = appendPoint(opts.Telemetry, points, pt, Point.Perf)
		costCap = pt.Cost() - opts.costStep()
	}
	if done || (len(served) > 0 && costCap <= 0) {
		return points, costCap, true
	}
	return points, costCap, false
}

// capKey orders caps with "uncapped" (<= 0) as +Inf, matching the model's
// encoding of an uncapped solve.
func capKey(c float64) float64 {
	if c <= 0 {
		return math.Inf(1)
	}
	return c
}

// capEps absorbs float noise between chain caps (cost − step with the
// solver's cost sum) and grid caps (the same arithmetic over enumerated
// levels). Frontier costs are quantized far coarser than this.
const capEps = 1e-9

type jobState int

const (
	jobPending jobState = iota
	jobRunning
	jobDone
	jobWithdrawn // canceled or claimed while still pending; never ran
)

// specJob is one speculative (or chain-initial) solve.
type specJob struct {
	costCap float64 // 0 = uncapped
	spec    bool    // speculative (not the chain's certain first cap)

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed once the job can never produce a result

	// Result fields, written exactly once before done is closed.
	pt         Point
	infeasible bool
	err        error
	spend      time.Duration

	// Bookkeeping, guarded by the queue mutex.
	state    jobState
	canceled bool // cancellation requested (retargeted)
	used     bool // result adopted by the chain
}

// specQueue is the dispatch queue: jobs sorted by descending cap, workers
// popping the highest pending one so the pool naturally migrates down the
// chain.
type specQueue struct {
	mu   sync.Mutex
	jobs []*specJob
}

// next pops the highest-cap pending job for a worker, or nil when none
// remain (all jobs are enqueued before the workers start).
func (q *specQueue) next() *specJob {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, j := range q.jobs {
		if j.state == jobPending {
			j.state = jobRunning
			return j
		}
	}
	return nil
}

// finish records a worker's result and releases any waiter.
func (q *specQueue) finish(j *specJob, pt Point, infeasible bool, err error, spend time.Duration) {
	q.mu.Lock()
	j.pt, j.infeasible, j.err, j.spend = pt, infeasible, err, spend
	j.state = jobDone
	q.mu.Unlock()
	close(j.done)
}

// covering returns a finished, error-free job whose result determines the
// frontier point at chain cap w, marking it used. Three cases:
//   - the job solved this exact cap (whatever its status — this is what
//     the sequential sweep would have computed here);
//   - an optimal result at a looser cap Z ≥ w whose tightened cost ≤ w:
//     the ε-constraint solution is a step function of the cap, so the same
//     point is optimal at w;
//   - infeasibility proven at Z ≥ w: a tighter cap is infeasible too.
func (q *specQueue) covering(w float64) *specJob {
	q.mu.Lock()
	defer q.mu.Unlock()
	wk := capKey(w)
	for _, j := range q.jobs {
		if j.state != jobDone || j.canceled || j.err != nil || j.used {
			continue
		}
		jk := capKey(j.costCap)
		switch {
		case math.Abs(jk-wk) <= capEps || (math.IsInf(jk, 1) && math.IsInf(wk, 1)):
		case j.infeasible && wk <= jk+capEps:
		case j.pt.Status == budget.StatusOptimal && j.pt.Design != nil &&
			j.pt.Cost() <= wk+capEps && wk <= jk+capEps:
		default:
			continue
		}
		j.used = true
		return j
	}
	return nil
}

// liveAt returns the pending or running job at exactly cap w, if any. The
// reconciler waits on it rather than solving inline: pending jobs sit at
// the top of the descending queue when the chain reaches their cap, so a
// worker picks them up promptly.
func (q *specQueue) liveAt(w float64) *specJob {
	q.mu.Lock()
	defer q.mu.Unlock()
	wk := capKey(w)
	for _, j := range q.jobs {
		if (j.state == jobPending || j.state == jobRunning) && !j.canceled &&
			(math.Abs(capKey(j.costCap)-wk) <= capEps || (math.IsInf(capKey(j.costCap), 1) && math.IsInf(wk, 1))) {
			return j
		}
	}
	return nil
}

// markUsed flags an awaited job's result as adopted.
func (q *specQueue) markUsed(j *specJob) {
	q.mu.Lock()
	j.used = true
	q.mu.Unlock()
}

// cancelRedundant cancels every live job whose cap a landed optimal point
// (tightened cost c, solved at chain cap w) proves redundant: solving at
// any cap in [c, w) would return this same point. Jobs below c stay — the
// chain may still need them.
func (q *specQueue) cancelRedundant(c, w float64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	wk := capKey(w)
	for _, j := range q.jobs {
		if j.canceled || j.used || j.state == jobDone || j.state == jobWithdrawn {
			continue
		}
		jk := capKey(j.costCap)
		if jk >= c-capEps && jk < wk-capEps {
			j.canceled = true
			j.cancel()
			if j.state == jobPending {
				j.state = jobWithdrawn
				close(j.done)
			}
		}
	}
}

// cancelAll cancels every remaining job at teardown.
func (q *specQueue) cancelAll() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, j := range q.jobs {
		if j.state == jobDone || j.state == jobWithdrawn {
			continue
		}
		j.canceled = true
		j.cancel()
		if j.state == jobPending {
			j.state = jobWithdrawn
			close(j.done)
		}
	}
}

// speculativeCaps enumerates the candidate chain caps: every distinct
// achievable cost level l (subset sums of processor and link costs) at or
// below the sweep's starting region contributes the cap l − costStep that
// the chain would set after landing a point of cost l. The grid is purely
// a performance hint — caps it misses are solved inline by the reconciler.
func speculativeCaps(g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology, opts Options) []float64 {
	if opts.ModelOpts.Memory {
		return nil // memory cost is continuous; no finite level grid
	}
	lib := pool.Library()
	var items []float64
	total := 0.0
	for _, p := range pool.Procs() {
		c := pool.Cost(p.ID)
		items = append(items, c)
		total += c
	}
	// Links enter by count, not identity: a design pays per selected link
	// and links of one topology usually share one cost, so the achievable
	// link contribution is k·c for each distinct positive cost c and small
	// k. Frontier designs route few transfers, so k is capped — levels the
	// cap misses just fall back to inline solves.
	n := pool.NumProcs()
	linkCosts := map[float64]struct{}{}
	for l := 0; l < topo.NumLinks(n); l++ {
		if c := topo.LinkCost(lib, arch.LinkID(l)); c > 0 {
			linkCosts[c] = struct{}{}
		}
	}
	maxLinks := topo.NumLinks(n)
	if k := len(g.Arcs()); k < maxLinks {
		maxLinks = k
	}
	if maxLinks > 8 {
		maxLinks = 8
	}
	for c := range linkCosts {
		for i := 0; i < maxLinks; i++ {
			items = append(items, c)
			total += c
		}
	}
	if len(items) > 18 {
		return nil // too many distinct items to enumerate subset sums
	}
	sums := map[float64]struct{}{}
	sums[0] = struct{}{}
	for _, it := range items {
		if it <= 0 {
			continue
		}
		add := make([]float64, 0, len(sums))
		for s := range sums {
			add = append(add, s+it)
		}
		for _, s := range add {
			sums[s] = struct{}{}
		}
		if len(sums) > 4096 {
			return nil
		}
	}
	// The chain starts at StartCap (or, uncapped, at the first point's
	// tightened cost, estimated by the greedy heuristic); levels above the
	// start can only re-derive the first point.
	limit := opts.StartCap
	if limit <= 0 {
		if d := heuristicDesign(g, pool, topo, 0); d != nil {
			limit = d.Cost
		} else {
			limit = total
		}
	}
	step := opts.costStep()
	startKey := capKey(opts.StartCap)
	seen := map[float64]struct{}{}
	var caps []float64
	for s := range sums {
		if s <= 0 || s > limit+capEps {
			continue
		}
		c := s - step
		if c <= 0 || math.Abs(capKey(c)-startKey) <= capEps {
			continue
		}
		if _, ok := seen[c]; ok {
			continue
		}
		seen[c] = struct{}{}
		caps = append(caps, c)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(caps)))
	if len(caps) > maxSpeculativeJobs {
		caps = caps[:maxSpeculativeJobs]
	}
	return caps
}

// speculate enqueues the chain's first cap and the speculative grid and
// starts opts.SweepWorkers workers on them. The returned stop cancels
// every job still live, joins the workers, and classifies each
// speculative job in telemetry.
func (q *specQueue) speculate(ctx context.Context, g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology, opts Options) (stop func()) {
	addJob := func(c float64, spec bool) {
		jctx, cancel := context.WithCancel(ctx)
		q.jobs = append(q.jobs, &specJob{
			costCap: c, spec: spec,
			ctx: jctx, cancel: cancel, done: make(chan struct{}),
		})
	}
	addJob(opts.StartCap, false)
	for _, c := range speculativeCaps(g, pool, topo, opts) {
		addJob(c, true)
	}
	sort.SliceStable(q.jobs, func(i, k int) bool {
		return capKey(q.jobs[i].costCap) > capKey(q.jobs[k].costCap)
	})

	var wg sync.WaitGroup
	for i := 0; i < opts.SweepWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := q.next()
				if j == nil {
					return
				}
				opts.Governor.Slice()
				start := time.Now()
				pt, infeasible, jerr := solvePointAny(j.ctx, g, pool, topo, opts, j.costCap)
				q.finish(j, pt, infeasible, jerr, time.Since(start))
			}
		}()
	}
	return func() {
		q.cancelAll()
		wg.Wait()
		tel := opts.Telemetry
		for _, j := range q.jobs {
			if !j.spec {
				continue
			}
			switch {
			case j.used:
				tel.Inc(telemetry.CtrSpeculativeHits)
				tel.Emit(telemetry.EvSpeculate, 0, j.costCap, "hit")
			case j.canceled:
				tel.Inc(telemetry.CtrSpeculativeRetargeted)
				tel.Emit(telemetry.EvSpeculate, 0, j.costCap, "retargeted")
			default:
				tel.Inc(telemetry.CtrSpeculativeWasted)
				tel.Emit(telemetry.EvSpeculate, 0, j.costCap, "wasted")
			}
		}
	}
}

// resolve produces the frontier point at chain cap w: a covering
// completed job, else the live job at exactly w, else an inline solve
// under the governor's next slice, whose unused time rolls over to every
// later point (the governor recomputes remaining budget from the wall
// clock). Each point emits one EvPoint carrying its solve duration.
func (q *specQueue) resolve(ctx context.Context, g *taskgraph.Graph, pool *arch.Instances, topo arch.Topology, opts Options, w float64) (Point, bool, error) {
	tel := opts.Telemetry
	j := q.covering(w)
	if j == nil {
		if j = q.liveAt(w); j != nil {
			<-j.done
			if j.err == nil && !j.canceled {
				q.markUsed(j)
			} else {
				// A failed (or late-canceled) job is retried inline once; a
				// second failure propagates with the partial frontier.
				j = nil
			}
		}
	}
	if j != nil {
		tel.Emit(telemetry.EvPoint, 0, j.spend.Seconds(), j.pt.Status.String())
		return j.pt, j.infeasible, nil
	}
	slice := opts.Governor.Slice()
	start := time.Now()
	pt, infeasible, err := solvePointAny(ctx, g, pool, topo, opts, w)
	spend := time.Since(start)
	if err != nil {
		return pt, infeasible, err
	}
	tel.Emit(telemetry.EvPoint, 0, spend.Seconds(), pt.Status.String())
	if slice > 0 && spend < slice {
		tel.Inc(telemetry.CtrRollovers)
		tel.Emit(telemetry.EvRollover, 0, (slice - spend).Seconds(), "")
	}
	return pt, infeasible, nil
}
