package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"sos/internal/arch"
	"sos/internal/cache"
	"sos/internal/exact"
	"sos/internal/lp"
	"sos/internal/milp"
	"sos/internal/model"
	"sos/internal/pareto"
	"sos/internal/server"
	"sos/internal/specfile"
	"sos/internal/taskgraph"
	"sos/internal/telemetry"
)

// splitInputs is one problem the traced run splits by layer: each
// layer's public function is called on it on its own, inside a "split"
// span that sits beside the operation's span rather than under it.
type splitInputs struct {
	in      *instance
	costCap float64
	// milp, when set, splits model build, root LP (with lp) and branch
	// and bound.
	milp *milp.Options
	lp   *lp.Options
	// sweep, when set, also runs pareto.Sweep on the inputs.
	sweep *pareto.Options
}

// splitter makes the traced run's split calls and keeps what the
// per-layer metrics need beyond span durations.
type splitter struct {
	tr *tracer
	// probe, when set, also posts every split problem to an in-process
	// sosd as one /v1/solve request, so workloads that never reach the
	// service still measure its path on their own inputs.
	probe *service
	// tel counts the search nodes of the split MILP and exact calls,
	// which milpMS and exactMS time.
	tel             *telemetry.Collector
	milpMS, exactMS float64
	srv             serviceTimes
}

// serviceTimes collects sosd's own per-request timings.
type serviceTimes struct {
	queue, solve, overhead []float64 // ms
	degraded, responses    int
}

// add records one response: latency is the client's send-to-answer time.
func (st *serviceTimes) add(resp *wireResponse, latency time.Duration) {
	q, s := resp.QueuedSeconds*1000, resp.SolveSeconds*1000
	st.queue = append(st.queue, q)
	st.solve = append(st.solve, s)
	st.overhead = append(st.overhead, ms(latency)-q-s)
	st.responses++
	if resp.Degraded {
		st.degraded++
	}
}

func newSplitter(tr *tracer, probe *service) *splitter {
	return &splitter{tr: tr, probe: probe, tel: telemetry.New(nil)}
}

// run splits one problem. An error means a layer call failed on inputs
// the operation itself handled, which counts against the operation.
func (s *splitter) run(ctx context.Context, op int, x splitInputs) error {
	tr, g, pool, topo := s.tr, x.in.g, x.in.pool, arch.PointToPoint{}
	root := tr.begin("split", op, -1)
	defer tr.end(root)
	tr.call("arch.Capable", op, root, func() {
		for a := 0; a < g.NumSubtasks(); a++ {
			pool.Capable(taskgraph.SubtaskID(a))
		}
	})
	doc, err := x.in.document()
	if err != nil {
		return err
	}
	tr.call("specfile.Parse", op, root, func() { _, err = specfile.Parse(doc) })
	if err != nil {
		return fmt.Errorf("specfile.Parse: %w", err)
	}
	tr.call("cache.Prepare", op, root, func() {
		_, err = cache.Prepare(cache.Request{Graph: g, Pool: pool, Topo: topo, CostCap: x.costCap})
	})
	if err != nil {
		return fmt.Errorf("cache.Prepare: %w", err)
	}
	if x.milp != nil {
		var m *model.Model
		tr.call("model.Build", op, root, func() {
			m, err = model.Build(g, pool, topo, model.Options{CostCap: x.costCap})
		})
		if err != nil {
			return fmt.Errorf("model.Build: %w", err)
		}
		tr.call("lp.Solve", op, root, func() { _, err = m.Prob.Solve(x.lp) })
		if err != nil {
			return fmt.Errorf("lp.Solve: %w", err)
		}
		opts := *x.milp
		opts.Telemetry = s.tel
		d := tr.call("milp.Solve", op, root, func() { _, _, err = m.Solve(ctx, &opts) })
		if err != nil {
			return fmt.Errorf("milp.Solve: %w", err)
		}
		s.milpMS += ms(d)
	}
	d := tr.call("exact.Synthesize", op, root, func() {
		_, err = exact.Synthesize(ctx, g, pool, topo, exact.Options{CostCap: x.costCap, Telemetry: s.tel})
	})
	if err != nil {
		return fmt.Errorf("exact.Synthesize: %w", err)
	}
	s.exactMS += ms(d)
	if x.sweep != nil {
		tr.call("pareto.Sweep", op, root, func() { _, err = pareto.Sweep(ctx, g, pool, topo, *x.sweep) })
		if err != nil {
			return fmt.Errorf("pareto.Sweep: %w", err)
		}
	}
	if s.probe == nil {
		return nil
	}
	body, err := json.Marshal(server.SolveRequest{Spec: doc, CostCap: x.costCap})
	if err != nil {
		return err
	}
	t0 := time.Now()
	code, data, err := s.probe.post("/v1/solve", body)
	latency := time.Since(t0)
	if err != nil {
		return fmt.Errorf("sosd probe: %w", err)
	}
	var resp wireResponse
	if err := json.Unmarshal(data, &resp); err != nil || code != 200 {
		return fmt.Errorf("sosd probe: HTTP %d: %s", code, data)
	}
	s.srv.add(&resp, latency)
	return nil
}

// layerData is what a traced run measured besides its spans.
type layerData struct {
	ops   int       // operations the counters were taken over
	opLat []float64 // ms, measured as the untraced run measures op_p50_ms
	// sweepSpan names the spans pareto.sweep_ms is the median of.
	sweepSpan      string
	ctr            map[string]int64 // counter totals over the operations
	builds, clones int64            // model.BuildCount/CloneCount deltas
	lag            []float64        // ms the generator sent each operation late
	srv            serviceTimes
	shed           int64
	split          *splitter
}

// perLayerMetrics computes every per-layer metric from a traced run.
// Times are medians of one call on the workload's inputs, and node rates
// are taken over those calls; counts are per operation unless named
// otherwise. LAYERS.md lists which
// end-to-end metric each one should move, and on which workload.
func perLayerMetrics(tr *tracer, d layerData) map[string]metric {
	ops := float64(max(d.ops, 1))
	med := func(name string) float64 { return quantile(tr.durations(name), 0.5) }
	per := func(k string) float64 { return float64(d.ctr[k]) / ops }
	frac := func(num float64, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	c := func(k string) float64 { return float64(d.ctr[k]) }
	rate := func(ctr telemetry.Counter, totalMS float64) float64 {
		return frac(float64(d.split.tel.Get(ctr)), totalMS/1000)
	}
	buildMS := med("model.Build")
	return map[string]metric{
		"arch.capable_us": {med("arch.Capable") * 1000, "us"},

		"model.build_ms":      {buildMS, "ms"},
		"model.build_share":   {frac(float64(d.builds)/ops*buildMS, quantile(d.opLat, 0.5)), "frac"},
		"model.builds_per_op": {float64(d.builds) / ops, "count"},
		"model.clones_per_op": {float64(d.clones) / ops, "count"},

		"lp.root_ms":              {med("lp.Solve"), "ms"},
		"lp.warm_frac":            {frac(c("lp_warm"), c("lp_warm")+c("lp_cold")), "frac"},
		"lp.resolves_per_op":      {per("lp_warm") + per("lp_cold"), "count"},
		"lp.dual_iters_per_op":    {per("lp_dual_iters"), "count"},
		"lp.primal_iters_per_op":  {per("lp_primal_iters"), "count"},
		"lp.fallbacks_per_op":     {per("lp_fallbacks"), "count"},
		"lp.refactors_per_op":     {per("lp_refactors"), "count"},
		"lp.presolve_rows_per_op": {per("lp_presolve_rows"), "count"},

		"milp.solve_ms":          {med("milp.Solve"), "ms"},
		"milp.nodes_per_op":      {per("nodes_expanded"), "count"},
		"milp.pruned_per_op":     {per("nodes_pruned"), "count"},
		"milp.nodes_per_s":       {rate(telemetry.CtrNodesExpanded, d.split.milpMS), "1/s"},
		"milp.incumbents_per_op": {per("incumbents"), "count"},
		"milp.cuts_per_op":       {per("cuts_added"), "count"},

		"pareto.sweep_ms":      {med(d.sweepSpan), "ms"},
		"pareto.points_per_op": {per("points"), "count"},

		"exact.solve_ms":           {med("exact.Synthesize"), "ms"},
		"exact.map_nodes_per_op":   {per("map_nodes"), "count"},
		"exact.sched_nodes_per_op": {per("sched_nodes"), "count"},
		"exact.map_nodes_per_s":    {rate(telemetry.CtrMapNodes, d.split.exactMS), "1/s"},
		"specfile.parse_us":        {med("specfile.Parse") * 1000, "us"},
		"cache.prepare_us":         {med("cache.Prepare") * 1000, "us"},
		"cache.hit_frac":           {frac(c("cache_hits"), c("cache_hits")+c("cache_near_hits")+c("cache_misses")), "frac"},
		"cache.near_hit_frac":      {frac(c("cache_near_hits"), c("cache_hits")+c("cache_near_hits")+c("cache_misses")), "frac"},
		"cache.coalesced":          {c("cache_coalesced"), "count"},
		"cache.frontier_hit_frac":  {frac(c("frontier_hits"), c("frontier_hits")+c("frontier_partial_hits")+c("frontier_misses")), "frac"},
		"cache.evictions":          {c("cache_evictions"), "count"},
		"server.queue_wait_p50_ms": {quantile(d.srv.queue, 0.5), "ms"},
		"server.queue_wait_p90_ms": {quantile(d.srv.queue, 0.9), "ms"},
		"server.solve_ms":          {quantile(d.srv.solve, 0.5), "ms"},
		"server.overhead_ms":       {quantile(d.srv.overhead, 0.5), "ms"},
		"server.degraded_frac":     {frac(float64(d.srv.degraded), float64(d.srv.responses)), "frac"},
		"server.shed":              {float64(d.shed), "count"},
		"schedule.validate_us":     {med("schedule.Validate") * 1000, "us"},
		"sim.replay_us":            {med("sim.Replay") * 1000, "us"},
		"gen.lag_p90_ms":           {quantile(d.lag, 0.9), "ms"},
		"trace.op_p50_ms":          {quantile(d.opLat, 0.5), "ms"},
	}
}
