package cache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"sos/internal/budget"
	"sos/internal/pareto"
	"sos/internal/schedule"
	"sos/internal/telemetry"
)

// The frontier store caches entire swept Pareto frontiers, not per-limit
// proofs: one entry per (FamilyKey, cost step) holds the certified
// ε-constraint chain with, for every point, the exact cap range the point
// is proven optimal over. Serving is range-aware through the same
// cover-down rule the per-limit cache uses — an Optimal point solved at
// chain cap W and cost-tightened to c answers every cap in [c, W], so a
// stored frontier over a cap range answers any sub-range exactly — and a
// request whose range is only partially covered is *delta-resolved*: the
// sweep serves the covered prefix (and any covered suffix) from the
// store and solves only the holes, after which the new points are
// spliced back in by merge. See DESIGN.md §15.

// frontierCap orders chain caps with "uncapped" (<= 0) as +Inf, matching
// both the model's encoding and Request.limit. A local copy of the
// sweep's capKey so the store stays importable without pareto internals.
func frontierCap(c float64) float64 {
	if c <= 0 {
		return math.Inf(1)
	}
	return c
}

// fpoint is one stored frontier point. design is kept in the owning
// entry's frame; cost/perf are its certified coordinates, and cap is the
// highest chain cap the point is proven optimal at — the point answers
// every cap in [cost, cap] (cover-down).
type fpoint struct {
	design *schedule.Design
	cost   float64
	perf   float64
	cap    float64
}

// frontierEntry is one cached frontier chain. Entries are immutable
// after insertion: merges build a replacement, so readers holding a
// snapshot pointer never observe mutation.
type frontierEntry struct {
	key   Key
	probe *Probe // frame the designs reference (remap source)
	step  float64
	// points in strictly decreasing cost order. Certified cover ranges
	// [cost, cap] of distinct frontier points are disjoint (two certified
	// optima cannot share a cap), so at most one point answers any cap.
	points []fpoint
	// term, when > 0, is a proven-terminal cap: a chain arriving at any
	// cap <= term yields no further points (infeasibility was certified
	// at or above it). +Inf means the family is infeasible outright.
	term float64
}

// find returns the index of the point answering chain cap wk, or -1.
// Points are sorted by decreasing cost and ranges are disjoint, so the
// first point with cost <= wk is the only candidate.
func (e *frontierEntry) find(wk float64) int {
	for i, p := range e.points {
		if p.cost <= wk+limitEps {
			if wk <= p.cap+limitEps {
				return i
			}
			return -1
		}
	}
	return -1
}

// frontierKey derives the store key: the limit-free family (which
// already folds in objective, topology, memory/IO variant, and the full
// canonical structure) plus the sweep's cost step. The start cap is
// deliberately absent — it is the range query, not part of identity.
func frontierKey(f FamilyKey, step float64) Key {
	var b []byte
	b = append(b, f[:]...)
	b = append(b, "sos-frontier-v1"...)
	b = binary.BigEndian.AppendUint64(b, normBits(step))
	return sha256.Sum256(b)
}

// FrontierOptions configures a FrontierStore.
type FrontierOptions struct {
	// Capacity bounds the number of cached frontiers (<= 0 selects 256).
	// Eviction is LRU; one frontier holds a whole chain, so the store
	// needs far fewer slots than the per-limit proof cache.
	Capacity int
	// PersistPath, when non-empty, appends every stored frontier to a
	// JSONL spill file and warm-loads existing lines at construction.
	PersistPath string
	// Telemetry receives the frontier_* counters and EvFrontier events.
	Telemetry *telemetry.Collector
}

// FrontierStore caches whole swept frontiers across requests. All
// methods are safe for concurrent use.
type FrontierStore struct {
	capacity int
	tel      *telemetry.Collector

	mu    sync.Mutex
	byKey map[Key]*list.Element
	lru   *list.List // of *frontierEntry; front = most recent

	flightMu sync.Mutex
	flights  map[Key]*flight

	spillMu sync.Mutex
	spill   *spill

	loadedN, loadSkipped int
}

// NewFrontierStore builds a frontier store, warm-loading the spill file
// when PersistPath is set.
func NewFrontierStore(opts FrontierOptions) (*FrontierStore, error) {
	if opts.Capacity <= 0 {
		opts.Capacity = 256
	}
	fs := &FrontierStore{
		capacity: opts.Capacity,
		tel:      opts.Telemetry,
		byKey:    make(map[Key]*list.Element),
		lru:      list.New(),
		flights:  make(map[Key]*flight),
	}
	if opts.PersistPath != "" {
		sp, err := openSpill(opts.PersistPath)
		if err != nil {
			return nil, fmt.Errorf("cache: frontier persist: %w", err)
		}
		fs.spill = sp
		fs.loadedN, fs.loadSkipped = sp.replay(fs.loadFrontierLine)
	}
	return fs, nil
}

// Close flushes and closes the persistent spill, if any.
func (fs *FrontierStore) Close() error {
	fs.spillMu.Lock()
	defer fs.spillMu.Unlock()
	if fs.spill == nil {
		return nil
	}
	err := fs.spill.close()
	fs.spill = nil
	return err
}

// Len reports the number of cached frontiers.
func (fs *FrontierStore) Len() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.lru.Len()
}

// Loaded reports how many spill lines were restored and skipped at
// construction.
func (fs *FrontierStore) Loaded() (restored, skipped int) {
	return fs.loadedN, fs.loadSkipped
}

// get returns the entry for a key (touching its LRU slot), or nil.
func (fs *FrontierStore) get(k Key) *frontierEntry {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if el, ok := fs.byKey[k]; ok {
		fs.lru.MoveToFront(el)
		return el.Value.(*frontierEntry)
	}
	return nil
}

// View opens one sweep's handle on the store. The view implements
// pareto.FrontierSource (serve covered chain regions, warm-seed the
// delta solves) and accounts what it served so Finish can classify the
// sweep as a hit, partial hit, or miss and splice new points back in.
// step must equal the sweep's cost step; startCap its starting cap.
func (fs *FrontierStore) View(p *Probe, step, startCap float64) *FrontierView {
	if step <= 0 {
		step = 1
	}
	return &FrontierView{
		fs:    fs,
		probe: p,
		step:  step,
		start: startCap,
		key:   frontierKey(p.Family(), step),
	}
}

// FrontierView is one sweep's window onto the store.
//
// Serve and Finish are called from the sweep's chain-walk goroutine
// only; Warm may be called concurrently from sweep workers (it touches
// only immutable view fields and the internally locked store).
type FrontierView struct {
	fs    *FrontierStore
	probe *Probe
	step  float64
	start float64
	key   Key

	served int  // points served into the sweep
	done   bool // the store proved chain termination for this sweep
}

// Served reports how many points Serve handed to the sweep.
func (v *FrontierView) Served() int { return v.served }

// Serve implements pareto.FrontierSource: the longest stored prefix of
// the remaining chain at cap w, each design remapped into the view's
// frame and re-validated, plus done=true when the store also proves the
// chain terminates after those points.
func (v *FrontierView) Serve(w float64) ([]pareto.Point, bool) {
	if v == nil || v.fs == nil {
		return nil, false
	}
	e := v.fs.get(v.key)
	if e == nil {
		return nil, false
	}
	var out []pareto.Point
	wk := frontierCap(w)
	done := false
	for {
		if e.term > 0 && wk <= e.term+limitEps {
			done = true
			break
		}
		i := e.find(wk)
		if i < 0 {
			break
		}
		fp := e.points[i]
		d, err := remapDesignFrom(fp.design, e.probe.canon, &e.probe.Req, v.probe)
		if err != nil {
			// A point that fails to remap (hash collision, corrupt spill)
			// is treated as uncovered: the sweep re-solves from here.
			break
		}
		out = append(out, pareto.Point{Design: d, Status: budget.StatusOptimal})
		next := fp.cost - v.step
		if next <= 0 {
			done = true
			break
		}
		wk = next
	}
	v.served += len(out)
	if done {
		v.done = true
	}
	return out, done
}

// Warm implements pareto.FrontierSource: up to max stored designs
// admissible at cap w (cost <= w), nearest first, remapped into the
// view's frame. Offered to delta solves as untrusted incumbents.
func (v *FrontierView) Warm(w float64, max int) []*schedule.Design {
	if v == nil || v.fs == nil || max <= 0 {
		return nil
	}
	e := v.fs.get(v.key)
	if e == nil {
		return nil
	}
	wk := frontierCap(w)
	var out []*schedule.Design
	for _, fp := range e.points {
		if fp.cost > wk+limitEps {
			continue
		}
		if d, err := remapDesignFrom(fp.design, e.probe.canon, &e.probe.Req, v.probe); err == nil {
			out = append(out, d)
			if len(out) == max {
				break
			}
		}
	}
	return out
}

// Finish records the sweep's outcome: classifies it against the store
// (hit / partial hit / miss telemetry) and, when every returned point is
// a certified optimum, merges the frontier back in — the whole chain on
// a complete sweep (sweepErr == nil), the certified prefix on a
// budget-truncated one. pts must be the sweep's ordered output and the
// sweep must have run without MaxPoints, so chain caps reconstruct
// exactly from the start cap and the cost step.
func (v *FrontierView) Finish(pts []pareto.Point, sweepErr error) {
	if v == nil || v.fs == nil {
		return
	}
	tel := v.fs.tel
	delta := len(pts) - v.served
	if delta < 0 {
		delta = 0
	}
	covered := v.served > 0 || v.done
	switch {
	case covered && delta == 0:
		tel.Inc(telemetry.CtrFrontierHits)
		tel.Emit(telemetry.EvFrontier, 0, float64(v.served), "hit")
	case covered:
		tel.Inc(telemetry.CtrFrontierPartialHits)
		tel.Add(telemetry.CtrFrontierDeltaPoints, int64(delta))
		tel.Emit(telemetry.EvFrontier, 0, float64(delta), "partial")
	default:
		tel.Inc(telemetry.CtrFrontierMisses)
		tel.Emit(telemetry.EvFrontier, 0, frontierCap(v.start), "miss")
	}
	if covered && delta == 0 {
		// Nothing new was proved; the store already holds this chain.
		return
	}
	if sweepErr != nil && !errors.Is(sweepErr, budget.ErrExhausted) {
		return
	}
	v.fs.StoreSweep(v.probe, v.step, v.start, pts, sweepErr == nil)
}

// StoreSweep merges a sweep's certified frontier into the store. pts
// must be the ordered output of a sweep started at startCap with the
// given cost step; every point must be StatusOptimal (anything weaker
// stores nothing and returns false — a degraded incumbent must never be
// served as a proof later). complete marks a sweep that ran to chain
// termination, which lets the store prove termination to later sweeps.
func (fs *FrontierStore) StoreSweep(p *Probe, step, startCap float64, pts []pareto.Point, complete bool) bool {
	if fs == nil || p == nil {
		return false
	}
	if step <= 0 {
		step = 1
	}
	for _, pt := range pts {
		if pt.Status != budget.StatusOptimal || pt.Design == nil {
			return false
		}
	}
	e := &frontierEntry{key: frontierKey(p.Family(), step), probe: p, step: step}
	cap := frontierCap(startCap)
	for _, pt := range pts {
		e.points = append(e.points, fpoint{
			design: pt.Design, cost: pt.Cost(), perf: pt.Perf(), cap: cap,
		})
		// The chain's next cap: one step below this point's tightened
		// cost. Always > 0 for non-final points (the sweep would have
		// stopped otherwise).
		cap = pt.Cost() - step
	}
	if complete {
		if len(pts) == 0 {
			// Proven infeasible at the start cap itself.
			e.term = frontierCap(startCap)
		} else if cap > 0 {
			// The sweep ended because the solve at this cap proved
			// infeasible (a chain only otherwise ends at cap <= 0, which
			// the serve walk detects by itself).
			e.term = cap
		}
	}
	if len(e.points) == 0 && e.term == 0 {
		return false
	}
	fs.upsert(e)
	return true
}

// upsert installs an entry, merging with any existing chain for the key
// and evicting LRU overflow.
func (fs *FrontierStore) upsert(nu *frontierEntry) {
	fs.mu.Lock()
	var stored *frontierEntry
	if el, ok := fs.byKey[nu.key]; ok {
		stored = mergeFrontier(el.Value.(*frontierEntry), nu)
		el.Value = stored
		fs.lru.MoveToFront(el)
	} else {
		stored = nu
		fs.byKey[nu.key] = fs.lru.PushFront(nu)
		for fs.lru.Len() > fs.capacity {
			back := fs.lru.Back()
			old := back.Value.(*frontierEntry)
			fs.lru.Remove(back)
			delete(fs.byKey, old.key)
			fs.tel.Emit(telemetry.EvFrontier, 0, float64(len(old.points)), "evict")
		}
	}
	fs.mu.Unlock()
	fs.tel.Inc(telemetry.CtrFrontierStores)
	fs.tel.Emit(telemetry.EvFrontier, 0, float64(len(stored.points)), "store")
	fs.appendFrontierSpill(stored)
}

// mergeFrontier splices two chains for one key into a single entry in
// nu's frame: the union of points (eps-equal costs collapse, keeping the
// wider proven cap range — certified optima at one cost are
// value-unique, so the designs are interchangeable) and the stronger
// terminal proof. Old points that fail to remap into the new frame are
// dropped; the merge is advisory, never load-bearing for soundness.
func mergeFrontier(old, nu *frontierEntry) *frontierEntry {
	out := &frontierEntry{key: nu.key, probe: nu.probe, step: nu.step, term: nu.term}
	if old.term > out.term {
		out.term = old.term
	}
	pts := append([]fpoint(nil), nu.points...)
	for _, op := range old.points {
		d, err := remapDesignFrom(op.design, old.probe.canon, &old.probe.Req, nu.probe)
		if err != nil {
			continue
		}
		op.design = d
		pts = append(pts, op)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].cost > pts[j].cost })
	for _, fp := range pts {
		if n := len(out.points); n > 0 && out.points[n-1].cost <= fp.cost+limitEps {
			if fp.cap > out.points[n-1].cap {
				out.points[n-1].cap = fp.cap
			}
			continue
		}
		out.points = append(out.points, fp)
	}
	return out
}

// flightKey identifies one (frontier, start cap) sweep for
// single-flight dedup: same family, step, and start coalesce.
func flightKey(fkey Key, startCap float64) Key {
	var b []byte
	b = append(b, fkey[:]...)
	b = binary.BigEndian.AppendUint64(b, normBits(frontierCap(startCap)))
	return sha256.Sum256(b)
}

// Do deduplicates concurrent identical sweeps, following the same
// leader/follower protocol as Cache.Do: the leader runs fn (solving and
// storing the frontier), followers wake after it finishes and re-serve
// from the store in their own frame. A canceled or failed leader
// releases the flight before followers wake, so the next arrival leads.
func (fs *FrontierStore) Do(ctx context.Context, p *Probe, step, startCap float64, fn func() error) (shared bool, err error) {
	key := flightKey(frontierKey(p.Family(), step), startCap)
	fs.flightMu.Lock()
	if f, ok := fs.flights[key]; ok {
		fs.flightMu.Unlock()
		select {
		case <-f.done:
			fs.tel.Emit(telemetry.EvFrontier, 0, frontierCap(startCap), "coalesced")
			return true, f.err
		case <-ctx.Done():
			return true, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	fs.flights[key] = f
	fs.flightMu.Unlock()

	err = fn()

	fs.flightMu.Lock()
	delete(fs.flights, key)
	fs.flightMu.Unlock()
	f.err = err
	close(f.done)
	return false, err
}
