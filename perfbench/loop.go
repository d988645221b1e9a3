package main

import (
	"context"
	"fmt"
	"time"

	"sos/internal/model"
	"sos/internal/server"
	"sos/internal/telemetry"
)

// closedLoop runs a single-caller workload: operations back to back for
// the run's length, each output checked outside the timed call. A traced
// run also records each operation's counters and splits its inputs by
// layer.
type closedLoop struct {
	// opSpan names the public call one operation makes; sweepSpan names
	// the spans pareto.sweep_ms is the median of.
	opSpan, sweepSpan string
	// inputs is the number of distinct inputs the operations cycle
	// through. Per-operation counts are taken over the first pass only,
	// so for a given seed they do not depend on how many operations fit
	// into the run.
	inputs int
	// op runs operation i with tel (nil when untraced) and returns the
	// check of its output.
	op func(ctx context.Context, i int, tel *telemetry.Collector) (check func(chk checker, parent int) error, err error)
	// split returns the inputs of operation i, split by layer in a traced run.
	split func(i int) splitInputs
}

// run measures the loop for the run's length. An untraced run makes one
// more set-up round before each operation after the first; the time
// those rounds take is left out of ops_per_s.
func (l closedLoop) run(cfg config, setup sampler) (*outcome, error) {
	ctx := context.Background()
	tr := cfg.tracer
	out := &outcome{}
	chk := checker{tr: tr}
	var tel *telemetry.Collector
	var split *splitter
	data := layerData{sweepSpan: l.sweepSpan, ctr: map[string]int64{}}
	if tr != nil {
		tr.opName = l.opSpan
		tel = telemetry.New(nil)
		probe, err := startService(server.Config{})
		if err != nil {
			return nil, err
		}
		defer probe.close()
		split = newSplitter(tr, probe)
	}

	var alloc uint64
	var sampling time.Duration // spent on extra set-up rounds
	start := time.Now()
	for i := 0; time.Since(start) < cfg.seconds; i++ {
		if tr == nil && i > 0 {
			t := time.Now()
			if err := setup.sample(); err != nil {
				return nil, fmt.Errorf("set-up round before op %d: %w", i, err)
			}
			sampling += time.Since(t)
		}
		ready := time.Now()
		before, builds, clones := tel.Counters(), model.BuildCount(), model.CloneCount()
		a0 := totalAlloc()
		id := tr.begin(l.opSpan, i, -1)
		t0 := time.Now()
		check, err := l.op(ctx, i, tel)
		d := time.Since(t0)
		tr.end(id)
		alloc += totalAlloc() - a0
		data.opLat = append(data.opLat, ms(d))
		data.lag = append(data.lag, ms(t0.Sub(ready)))
		out.attempted++
		if err == nil {
			parent := tr.begin("check", i, -1)
			err = check(chk, parent)
			tr.end(parent)
		}
		if err != nil {
			out.fail("op %d: %v", i, err)
			continue
		}
		if tr == nil {
			continue
		}
		delta := counterDelta(before, tel.Counters())
		tr.snapshot(i, delta)
		if i < l.inputs {
			for k, v := range delta {
				data.ctr[k] += v
			}
			data.builds += model.BuildCount() - builds
			data.clones += model.CloneCount() - clones
			data.ops++
		}
		if err := split.run(ctx, i, l.split(i)); err != nil {
			out.fail("op %d split: %v", i, err)
		}
	}
	elapsed := time.Since(start)

	if tr == nil {
		out.metrics = closedLoopMetrics(data.opLat, elapsed-sampling, alloc, setup.median())
		return out, nil
	}
	data.srv, data.split = split.srv, split
	out.metrics = perLayerMetrics(tr, data)
	return out, nil
}
