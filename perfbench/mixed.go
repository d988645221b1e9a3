package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"sos"
	"sos/internal/exact"
	"sos/internal/lp"
	"sos/internal/milp"
	"sos/internal/pareto"
	"sos/internal/server"
	"sos/internal/specfile"
	"sos/internal/telemetry"
)

// The sosd-mixed traffic design. Arrivals are Poisson at mixedRate per
// second, and the requests are, in a seeded order:
//
//   - hot (74%): one of hotSpecs specs proved at set-up, each time drawn
//     anew and re-sent either at the cost cap it was proved at (an exact
//     cache hit) or at a cap between its optimum's cost and that cap (a
//     cover-down hit);
//   - miss (20%): a fresh 8-9-subtask instance, derived from
//     (seed, miss index), that no cache entry covers, so the
//     combinatorial engine proves it;
//   - sweep (6%): POST /v1/sweep of a relabeled Example 1 from a start
//     cap in sweepCaps, served from the frontier store set-up filled.
//
// Hits and sweeps (80%) take about a millisecond and misses ten or
// more, so the 50th percentile falls in the middle of the hit class and
// the 90th in the middle of the miss class. The rate is far below the
// roughly 780 requests per second the in-process service sustains with
// this mix on two CPUs, for two measured reasons. Hits start to queue
// behind misses early: at 150/s hit p90 was 3.6-8 ms against under 2 ms
// at 60/s, and nearer half of capacity p50 would sit on the edge between
// queued and unqueued hits. And p90 follows the misses' solve time, which
// drifts with the host: over ten seeds its quartile spread was 0.34 of
// the median at 50/s with 16% misses, and 0.22 at this rate and mix.
const (
	mixedRate  = 30.0
	hotSpecs   = 6
	hotShare   = 0.74
	missShare  = 0.20
	splitMiss  = 24 // miss requests the traced run splits by layer
	splitSweep = 4  // sweep requests the traced run splits by layer
	// mixedSetupTail is how many set-up rounds an untraced run makes
	// after its window, beside the setupRounds before it.
	mixedSetupTail = 12
)

// sweepCaps are the start caps sweep requests draw from (0 sweeps the
// whole frontier).
var sweepCaps = []float64{0, 14, 13, 7}

// mixedState is one set-up of the workload: a running service with a
// warm cache and the run's whole request schedule.
type mixedState struct {
	svc   *service
	tel   *telemetry.Collector
	sched []scheduled
}

// scheduled is one request and the offset from the start of the run at
// which it is due.
type scheduled struct {
	at  time.Duration
	req *request
}

// result is what happened to one scheduled request.
type result struct {
	due, send, done time.Time
	code            int
	body            []byte
	err             error
	solveMS         float64 // the server's own solve time for it
}

func runSOSDMixed(cfg config) (*outcome, error) {
	st, setup, err := newSetup(func() (*mixedState, error) {
		return mixedSetup(cfg.seed, cfg.seconds)
	}, func(s *mixedState) { s.svc.close() })
	if err != nil {
		return nil, err
	}
	out, err := mixedWindow(cfg, st)
	if err != nil || cfg.tracer != nil {
		return out, err
	}
	// The extra set-up rounds come after the window, so that they do not
	// compete with the service for CPU, and after its state is released,
	// so that collections inside a round mark a heap of the size the
	// first round saw.
	for j := 0; j < mixedSetupTail; j++ {
		if err := setup.sample(); err != nil {
			return nil, fmt.Errorf("set-up round after the window: %w", err)
		}
	}
	out.metrics["setup_s"] = metric{setup.median(), "s"}
	return out, nil
}

// mixedWindow sends the schedule of st, checks every answer, and returns
// the outcome with its metrics, setup_s aside. It closes st's service.
func mixedWindow(cfg config, st *mixedState) (*outcome, error) {
	ctx := context.Background()
	defer st.svc.close()

	tr := cfg.tracer
	opSpan := "sosd.request"
	if tr != nil {
		tr.opName = opSpan
	}
	results := make([]result, len(st.sched))
	before := st.tel.Counters()
	a0 := totalAlloc()
	start := time.Now()
	send := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < loadConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range send {
				r, q := &results[i], st.sched[i].req
				var c0 map[string]int64
				if tr != nil {
					c0 = st.tel.Counters()
				}
				id := tr.begin(opSpan, i, -1)
				r.send = time.Now()
				r.code, r.body, r.err = st.svc.post(q.path, q.body)
				r.done = time.Now()
				tr.end(id)
				if tr != nil {
					tr.snapshot(i, counterDelta(c0, st.tel.Counters()))
				}
			}
		}()
	}
	// Open loop: each request is handed to a free connection when due; if
	// both are busy it goes out late, and its latency still counts from
	// when it was due.
	for i, s := range st.sched {
		due := start.Add(s.at)
		results[i].due = due
		waitUntil(due)
		send <- i
	}
	close(send)
	wg.Wait()
	alloc := totalAlloc() - a0
	window := counterDelta(before, st.tel.Counters())

	out := &outcome{attempted: len(st.sched)}
	chk := checker{tr: tr}
	var lat []float64
	data := layerData{sweepSpan: "pareto.Sweep", ctr: window, shed: window["req_shed"]}
	last := start
	for i, r := range results {
		q := st.sched[i].req
		lat = append(lat, ms(r.done.Sub(r.due)))
		data.lag = append(data.lag, ms(r.send.Sub(r.due)))
		if r.done.After(last) {
			last = r.done
		}
		if r.err != nil {
			out.fail("request %d (%s): %v", i, q.kind, r.err)
			continue
		}
		check := tr.begin("check", i, -1)
		resp, err := chk.response(r.code, r.body, q, i, check)
		tr.end(check)
		if resp != nil {
			data.srv.add(resp, r.done.Sub(r.send))
			results[i].solveMS = resp.SolveSeconds * 1000
		}
		if err != nil {
			out.fail("request %d: %v", i, err)
		}
	}

	printClasses(st.sched, results)
	if tr == nil {
		out.metrics = map[string]metric{
			"op_p50_ms":       {quantile(lat, 0.5), "ms"},
			"op_p90_ms":       {quantile(lat, 0.9), "ms"},
			"ops_per_s":       {float64(len(lat)) / last.Sub(start).Seconds(), "1/s"},
			"alloc_mb_per_op": {float64(alloc) / float64(max(len(lat), 1)) / (1 << 20), "MB"},
		}
		return out, nil
	}

	// Split a sample of the misses and sweeps by layer, after the timed
	// window so the extra calls do not compete with the service for CPU.
	split := newSplitter(tr, nil)
	misses, sweeps := 0, 0
	for i, s := range st.sched {
		q := s.req
		var x splitInputs
		switch {
		case q.kind == reqMiss && misses < splitMiss:
			misses++
			x = splitInputs{in: q.in, costCap: q.costCap}
		case q.kind == reqSweep && sweeps < splitSweep:
			sweeps++
			x = splitInputs{in: q.in, costCap: q.costCap, lp: &lp.Options{}, milp: &milp.Options{},
				sweep: &pareto.Options{Engine: pareto.EngineCombinatorial, StartCap: q.costCap}}
		default:
			continue
		}
		if err := split.run(ctx, i, x); err != nil {
			out.fail("request %d split: %v", i, err)
		}
	}
	data.ops, data.opLat, data.split = out.attempted, lat, split
	out.metrics = perLayerMetrics(tr, data)
	return out, nil
}

// timerSlack is how early the generator wakes before a due time; it
// spins the rest, since a timer alone wakes it up to a millisecond late.
const timerSlack = 300 * time.Microsecond

// waitUntil returns at t: it sleeps until shortly before t and then
// yields the processor until t has passed.
func waitUntil(t time.Time) {
	time.Sleep(time.Until(t) - timerSlack)
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// mixedSetup computes the hot specs' reference optima, starts the
// service with a shared cache (frontiers on), warms the cache with the
// hot proofs and one Example 1 frontier, and generates the schedule.
func mixedSetup(seed int64, seconds time.Duration) (*mixedState, error) {
	hot, err := hotRequests(seed)
	if err != nil {
		return nil, err
	}
	ex1, err := paperLabeling(seed, 0)
	if err != nil {
		return nil, err
	}
	sweep, err := newRequest(reqSweep, ex1, 0)
	if err != nil {
		return nil, err
	}
	sched, err := mixedSchedule(seed, seconds, hot)
	if err != nil {
		return nil, err
	}

	tel := telemetry.New(nil)
	c, err := sos.NewCache(sos.CacheOptions{Frontiers: true, Telemetry: tel})
	if err != nil {
		return nil, err
	}
	svc, err := startService(server.Config{Cache: c, Telemetry: tel})
	if err != nil {
		return nil, err
	}
	for _, q := range append(hot, sweep) {
		code, body, err := svc.post(q.path, q.body)
		if err == nil {
			_, err = checker{}.response(code, body, q, -1, -1)
		}
		if err != nil {
			svc.close()
			return nil, fmt.Errorf("cache warm-up: %w", err)
		}
	}
	return &mixedState{svc: svc, tel: tel, sched: sched}, nil
}

// mixedSchedule draws the arrival times and requests of one run. The
// run has exactly mixedRate × seconds requests (a Poisson process
// conditioned on its count: sorted uniform arrival times) and exactly
// the designed number of each class, in a seeded order, so the mix is
// fixed by construction. Request i depends only on (seed, i) and, for a
// miss, on how many misses precede it.
func mixedSchedule(seed int64, seconds time.Duration, hot []*request) ([]scheduled, error) {
	n := int(math.Round(mixedRate * seconds.Seconds()))
	r := rngFor(seed, "arrivals", 0)
	at := make([]float64, n)
	for i := range at {
		at[i] = r.Float64() * float64(seconds)
	}
	sort.Float64s(at)
	kinds := make([]reqKind, n)
	nHot, nMiss := int(math.Round(hotShare*float64(n))), int(math.Round(missShare*float64(n)))
	for i := range kinds {
		switch {
		case i < nHot:
			kinds[i] = reqHot
		case i < nHot+nMiss:
			kinds[i] = reqMiss
		default:
			kinds[i] = reqSweep
		}
	}
	r.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	out := make([]scheduled, n)
	misses := 0
	for i := range out {
		r := rngFor(seed, "mix", i)
		var q *request
		var err error
		switch kinds[i] {
		case reqHot:
			h := hot[r.Intn(len(hot))]
			cp := *h
			if r.Intn(2) == 1 {
				// Any cap between the optimum's cost and the proved cap
				// has the same optimum: a cover-down hit.
				cp.costCap = (h.minCost + h.costCap) / 2
				if cp.body, err = json.Marshal(server.SolveRequest{Spec: h.doc, CostCap: cp.costCap}); err != nil {
					return nil, err
				}
			}
			q = &cp
		case reqMiss:
			in, costCap, err := missInstance(seed, misses)
			misses++
			if err != nil {
				return nil, err
			}
			if q, err = newRequest(reqMiss, in, costCap); err != nil {
				return nil, err
			}
		default:
			in, err := paperLabeling(seed, i)
			if err != nil {
				return nil, err
			}
			if q, err = newRequest(reqSweep, in, sweepCaps[r.Intn(len(sweepCaps))]); err != nil {
				return nil, err
			}
		}
		out[i] = scheduled{at: time.Duration(at[i]), req: q}
	}
	return out, nil
}

// hotRequests generates the hot specs at their proved caps, with each
// one's reference optimum computed directly by the exact engine.
func hotRequests(seed int64) ([]*request, error) {
	hot := make([]*request, hotSpecs)
	for j := range hot {
		in, costCap, err := hotInstance(seed, j)
		if err != nil {
			return nil, err
		}
		ref, err := exact.Synthesize(context.Background(), in.g, in.pool, sos.PointToPoint(), exact.Options{CostCap: costCap})
		if err != nil || ref.Design == nil || !ref.Optimal {
			return nil, fmt.Errorf("hot spec %d: no reference optimum (err %v)", j, err)
		}
		if hot[j], err = newRequest(reqHot, in, costCap); err != nil {
			return nil, err
		}
		hot[j].makespan = ref.Design.Makespan
		hot[j].minCost = ref.Design.Cost
	}
	return hot, nil
}

// newRequest encodes a request body for in and decodes its spec back the
// way the server will, so the checker reads answers against the same
// problem objects' names.
func newRequest(kind reqKind, in *instance, costCap float64) (*request, error) {
	doc, err := in.document()
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(server.SolveRequest{Spec: doc, CostCap: costCap})
	if err != nil {
		return nil, err
	}
	sf, err := specfile.Parse(doc)
	if err != nil {
		return nil, err
	}
	q := &request{kind: kind, path: "/v1/solve", body: body, doc: doc, in: in,
		g: sf.Graph, pool: sf.Instances(), costCap: costCap}
	if kind == reqSweep {
		q.path = "/v1/sweep"
		q.frontier = wantFrontier(costCap)
	}
	return q, nil
}

// printClasses writes each request class's latency and server solve
// time percentiles and the generator's lateness to standard error: the
// evidence that p50 falls inside the hit class and p90 inside the miss
// class.
func printClasses(sched []scheduled, results []result) {
	lat, solve := map[reqKind][]float64{}, map[reqKind][]float64{}
	var lag []float64
	for i, r := range results {
		k := sched[i].req.kind
		lat[k] = append(lat[k], ms(r.done.Sub(r.due)))
		solve[k] = append(solve[k], r.solveMS)
		lag = append(lag, ms(r.send.Sub(r.due)))
	}
	for _, k := range []reqKind{reqHot, reqMiss, reqSweep} {
		l := lat[k]
		fmt.Fprintf(os.Stderr, "sosd-mixed: %-5s n=%4d share=%.3f latency p10=%.3fms p50=%.3fms p90=%.3fms, server solve p50=%.3fms p90=%.3fms\n",
			k, len(l), float64(len(l))/float64(len(results)), quantile(l, 0.1), quantile(l, 0.5), quantile(l, 0.9),
			quantile(solve[k], 0.5), quantile(solve[k], 0.9))
	}
	fmt.Fprintf(os.Stderr, "sosd-mixed: lag p50=%.3fms p90=%.3fms\n", quantile(lag, 0.5), quantile(lag, 0.9))
}
