// Command perfbench is the repository's end-to-end benchmark. It drives
// the solver stack in-process through its public functions on one of
// three seeded workloads and prints, as the last line of its output, one
// JSON object with the number of operations attempted and failed and the
// workload's metrics:
//
//	bash perfbench/run.sh --workload paper-milp --seed 1 --seconds 35 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (latency
// percentiles, throughput, allocation, set-up time). With --trace 1 the
// run records spans around the calls into each layer, splits every
// operation by layer, and reports the per-layer metrics instead; the
// spans, per-operation counter snapshots and a per-layer self-time
// summary are written to .bench_build/traces/. LAYERS.md lists which
// end-to-end metric each per-layer metric should move, and on which
// workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupRounds is how many set-up rounds a run makes before its first
// operation; the first round's state is the one measured.
const setupRounds = 3

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload receives from the command line.
type config struct {
	seed    int64
	seconds time.Duration
	tracer  *tracer // nil unless --trace 1
}

// outcome is what a workload hands back: its operation tally, the
// metrics of the selected kind, and any failure messages (the first few
// are printed to standard error).
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	failures          []string
}

// fail records one failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(config) (*outcome, error){
	"paper-milp":       runPaperMILP,
	"structured-scale": runStructuredScale,
	"sosd-mixed":       runSOSDMixed,
}

func main() {
	name := flag.String("workload", "", "workload: paper-milp, structured-scale or sosd-mixed")
	seed := flag.Int64("seed", 0, "input seed")
	seconds := flag.Int("seconds", 10, "measured run length in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	if *trace == 1 {
		cfg.tracer = newTracer()
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, f := range out.failures {
		fmt.Fprintf(os.Stderr, "perfbench: %s: failed: %s\n", *name, f)
	}
	if cfg.tracer != nil {
		path, err := cfg.tracer.write(*name, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s\n", path)
	}
	line, err := json.Marshal(report{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// cpuSeconds reads the CPU time, user and system, the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// totalAlloc reads the cumulative heap allocation in bytes.
func totalAlloc() uint64 {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.TotalAlloc
}

// setupSampler times a workload's set-up, as the CPU time the process
// spends in it. On a shared host the wall time of a set-up of a tenth of
// a second is mostly a reading of the host: on a 2-vCPU virtual machine,
// in runs where the host stole 12% of the CPU, set-up wall time more
// than doubled, while a Linux guest with steal-time accounting leaves
// stolen time out of a process's CPU time. The speed of a process also
// drifts in phases of about a second (back-to-back rounds in one process
// on that machine took 17-22 ms for a second and 28-33 ms the next), so
// a median of rounds made in one burst reads one phase. A run therefore
// also repeats the set-up while it runs (before each operation on the
// closed loops, after the timed window on sosd-mixed); each extra round
// builds a fresh state that is timed and released, and setup_s is the
// median of all rounds. Every round starts from a collected heap.
type setupSampler[S any] struct {
	build   func() (S, error)
	release func(S)
	secs    []float64
}

// sampler is the part of a setupSampler a workload's loop uses.
type sampler interface {
	// sample makes, times and releases one more set-up round.
	sample() error
	// median is setup_s: the median round's CPU time in seconds.
	median() float64
}

// newSetup makes setupRounds rounds and returns the first round's state,
// with the sampler that makes the run's later rounds.
func newSetup[S any](build func() (S, error), release func(S)) (S, *setupSampler[S], error) {
	s := &setupSampler[S]{build: build, release: release}
	st, err := s.round()
	if err != nil {
		return st, nil, err
	}
	for i := 1; i < setupRounds; i++ {
		if err := s.sample(); err != nil {
			release(st)
			return st, nil, err
		}
	}
	return st, s, nil
}

func (s *setupSampler[S]) round() (S, error) {
	runtime.GC()
	t0 := cpuSeconds()
	st, err := s.build()
	if err == nil {
		s.secs = append(s.secs, cpuSeconds()-t0)
	}
	return st, err
}

func (s *setupSampler[S]) sample() error {
	st, err := s.round()
	if err == nil {
		s.release(st)
	}
	return err
}

func (s *setupSampler[S]) median() float64 { return quantile(s.secs, 0.5) }

// closedLoopMetrics turns one caller's operation latencies into the
// end-to-end metrics every workload reports.
func closedLoopMetrics(lat []float64, elapsed time.Duration, allocBytes uint64, setupS float64) map[string]metric {
	n := len(lat)
	if n == 0 {
		n = 1
	}
	return map[string]metric{
		"setup_s":         {setupS, "s"},
		"op_p50_ms":       {quantile(lat, 0.5), "ms"},
		"op_p90_ms":       {quantile(lat, 0.9), "ms"},
		"ops_per_s":       {float64(len(lat)) / elapsed.Seconds(), "1/s"},
		"alloc_mb_per_op": {float64(allocBytes) / float64(n) / (1 << 20), "MB"},
	}
}
