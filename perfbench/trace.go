package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// traceDir is where traced runs write their spans, relative to the
// directory the benchmark runs in.
const traceDir = ".bench_build/traces"

// span is one timed call into a layer. Parent indexes the run's span
// list (-1 for a root); spans of one operation share Op.
type span struct {
	Name   string  `json:"name"`
	Op     int     `json:"op"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// snapshot is the telemetry counter delta one operation produced.
type snapshot struct {
	Op       int              `json:"op"`
	Counters map[string]int64 `json:"counters"`
}

// layerSummary is one span name's share of the traced run.
type layerSummary struct {
	Name  string  `json:"name"`
	Calls int     `json:"calls"`
	Total float64 `json:"total_ms"`
	Self  float64 `json:"self_ms"`
	// Share is Total over the summed duration of the operation spans:
	// the part of an operation's time this call takes (for split calls,
	// the time it takes when made on its own on the same inputs).
	Share float64 `json:"share_of_op"`
}

// tracer keeps a traced run's spans and counter snapshots in memory
// until the run ends. It is safe for concurrent use.
type tracer struct {
	origin time.Time
	opName string // name of the spans that are whole operations

	mu    sync.Mutex
	spans []span
	snaps []snapshot
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.origin)) / float64(time.Microsecond) }

// begin opens a span and returns its index. On a nil tracer it records
// nothing and returns -1.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: t.now()})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = t.now()
	return time.Duration((s.End - s.Start) * float64(time.Microsecond))
}

// call runs f inside a span and returns how long f took. On a nil
// tracer it only runs f.
func (t *tracer) call(name string, op, parent int, f func()) time.Duration {
	if t == nil {
		f()
		return 0
	}
	id := t.begin(name, op, parent)
	f()
	return t.end(id)
}

// snapshot records the counter delta of one operation.
func (t *tracer) snapshot(op int, delta map[string]int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.snaps = append(t.snaps, snapshot{Op: op, Counters: delta})
}

// durations returns the durations, in milliseconds, of every closed
// span with the given name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, (s.End-s.Start)/1000)
		}
	}
	return out
}

// summary computes each span name's call count, total and self time
// (duration minus the part covered by its child spans) and its share of
// the operation spans' time.
func (t *tracer) summary() []layerSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*layerSummary{}
	var opTotal float64
	for i, s := range t.spans {
		if s.End == 0 {
			continue
		}
		d := s.End - s.Start
		if s.Name == t.opName {
			opTotal += d
		}
		ls := byName[s.Name]
		if ls == nil {
			ls = &layerSummary{Name: s.Name}
			byName[s.Name] = ls
		}
		ls.Calls++
		ls.Total += d / 1000
		ls.Self += (d - child[i]) / 1000
	}
	out := make([]layerSummary, 0, len(byName))
	for _, ls := range byName {
		if opTotal > 0 {
			ls.Share = ls.Total * 1000 / opTotal
		}
		out = append(out, *ls)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}

// write stores the run's spans, snapshots and summary as one JSON file
// under traceDir and returns its path.
func (t *tracer) write(workload string, seed int64) (string, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return "", err
	}
	summary := t.summary()
	t.mu.Lock()
	doc := struct {
		Workload string         `json:"workload"`
		Seed     int64          `json:"seed"`
		OpSpan   string         `json:"op_span"`
		Summary  []layerSummary `json:"summary"`
		Spans    []span         `json:"spans"`
		Counters []snapshot     `json:"counters"`
	}{workload, seed, t.opName, summary, t.spans, t.snaps}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	return path, os.WriteFile(path, data, 0o644)
}

// counterDelta returns after minus before for every counter that moved.
func counterDelta(before, after map[string]int64) map[string]int64 {
	d := map[string]int64{}
	for k, v := range after {
		if v != before[k] {
			d[k] = v - before[k]
		}
	}
	return d
}
