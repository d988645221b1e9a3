package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"

	"sos/internal/budget"
	"sos/internal/pareto"
	"sos/internal/schedule"
	"sos/internal/telemetry"
)

// A swept frontier is stored as the proofs it is made of. Each certified
// point of an ε-constraint chain is a MinMakespan proof at its chain cap
// W whose design is cost-tightened to c (the frontier flag), so under the
// cover-down rule it answers every cap in [c, W]; a chain that ended on an
// infeasible cap leaves an ordinary infeasibility proof there. A sweep
// walks the family along those ranges: a fully covered cap range costs
// one walk and no solver call, and a partially covered one solves only
// the holes (delta-resolve), whose proofs then fill them. See DESIGN.md
// §13.

// View opens one sweep's handle on the cache. The view implements
// pareto.FrontierSource (serve covered chain regions, warm-seed the
// delta solves) and accounts what it served so Finish can classify the
// sweep as a hit, partial hit, or miss and store the new proofs. p must
// be a MinMakespan probe; step is the sweep's cost step, startCap its
// starting cap.
func (c *Cache) View(p *Probe, step, startCap float64) *View {
	if step <= 0 {
		step = 1
	}
	return &View{c: c, probe: p, step: step, start: capLimit(startCap)}
}

// View is one sweep's window onto the cache.
//
// Serve, Covers and Finish are called from the sweep's chain walk only;
// Warm may be called concurrently from sweep workers (it touches only
// immutable view fields and the internally locked cache).
type View struct {
	c     *Cache
	probe *Probe
	step  float64
	start float64 // normalized start cap (+Inf = uncapped)

	served int  // points served into the sweep
	done   bool // the cache proved chain termination for this sweep
}

// FlightKey identifies this sweep for Cache.Do: same family, step and
// start cap coalesce. It never equals a point-solve key.
func (v *View) FlightKey() Key {
	b := append(v.probe.canon.family[:], "sos-sweep"...)
	b = binary.BigEndian.AppendUint64(b, normBits(v.step))
	return sha256.Sum256(binary.BigEndian.AppendUint64(b, normBits(v.start)))
}

// link returns the proof deciding chain cap limit: a frontier proof
// covering it (end=false), an infeasibility proof covering it (e nil,
// end=true), or neither. The proof found is touched in the LRU.
func (v *View) link(limit float64, touch bool) (e *entry, end bool) {
	fam := v.probe.canon.family
	s := v.c.shardFor(fam)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, fe := range s.families[fam] {
		if !fe.covers(limit) {
			continue
		}
		if fe.infeasible {
			return nil, true
		}
		if fe.frontier && e == nil {
			e = fe
		}
	}
	if e != nil && touch {
		s.lru.MoveToFront(s.byKey[e.key])
	}
	return e, false
}

// Covers implements pareto.FrontierSource: whether the cache decides chain
// cap w (a frontier point or the chain's end), without serving it.
func (v *View) Covers(w float64) bool {
	e, end := v.link(capLimit(w), false)
	return e != nil || end
}

// Serve implements pareto.FrontierSource: the longest cached prefix of
// the remaining chain at cap w, each design remapped into the view's
// frame and re-validated, plus done=true when the cache also proves the
// chain ends after those points.
func (v *View) Serve(w float64) ([]pareto.Point, bool) {
	var out []pareto.Point
	limit, done := capLimit(w), false
	for {
		e, end := v.link(limit, true)
		if end {
			done = true
			break
		}
		if e == nil {
			break
		}
		d, err := remapDesign(e, v.probe)
		if err != nil {
			// A proof that fails to remap (hash collision, corrupt spill)
			// is treated as uncovered: the sweep re-solves from here.
			break
		}
		out = append(out, pareto.Point{Design: d, Status: budget.StatusOptimal})
		if limit = e.designLimit - v.step; limit <= 0 {
			done = true
			break
		}
	}
	v.served += len(out)
	v.done = v.done || done
	return out, done
}

// Warm implements pareto.FrontierSource: up to max cached designs of the
// family admissible at cap w (cost <= w), best makespan first, remapped
// into the view's frame. Offered to delta solves as untrusted incumbents.
func (v *View) Warm(w float64, max int) []*schedule.Design {
	return v.c.warmAt(v.probe, capLimit(w), max)
}

// Finish records the sweep's outcome: classifies it (hit / partial hit /
// miss telemetry) and, when every returned point is a certified optimum,
// stores the chain's proofs — the whole chain on a complete sweep
// (sweepErr == nil), the certified prefix on a budget-truncated one. pts
// must be the sweep's ordered output and the sweep must have run without
// MaxPoints, so chain caps reconstruct exactly from the start cap and the
// cost step.
func (v *View) Finish(pts []pareto.Point, sweepErr error) {
	tel := v.c.tel
	delta := max(len(pts)-v.served, 0)
	covered := v.served > 0 || v.done
	switch {
	case covered && delta == 0:
		tel.Inc(telemetry.CtrFrontierHits)
		tel.Emit(telemetry.EvFrontier, 0, float64(v.served), "hit")
		return // nothing new was proved
	case covered:
		tel.Inc(telemetry.CtrFrontierPartialHits)
		tel.Add(telemetry.CtrFrontierDeltaPoints, int64(delta))
		tel.Emit(telemetry.EvFrontier, 0, float64(delta), "partial")
	default:
		tel.Inc(telemetry.CtrFrontierMisses)
		tel.Emit(telemetry.EvFrontier, 0, v.start, "miss")
	}
	if sweepErr != nil && !errors.Is(sweepErr, budget.ErrExhausted) {
		return
	}
	v.storeSweep(pts, sweepErr == nil)
}

// storeSweep stores a sweep's certified chain as frontier proofs. Every
// point must be StatusOptimal (anything weaker stores nothing — a
// degraded incumbent must never be served as a proof later). complete
// marks a sweep that ran to the chain's end, whose last cap (when > 0)
// was proven infeasible. Caps the cache already decides (the served
// points) are skipped, and one spill line holds the proofs added.
func (v *View) storeSweep(pts []pareto.Point, complete bool) {
	for _, pt := range pts {
		if pt.Status != budget.StatusOptimal || pt.Design == nil {
			return
		}
	}
	var added []*entry
	add := func(limit float64, d *schedule.Design) { // d nil: infeasible
		if e, end := v.link(limit, false); e != nil || end {
			return
		}
		var perf float64
		if d != nil {
			perf = d.Makespan
		}
		if e := newEntry(v.probe, limit, d == nil, d, perf, 0, d != nil); v.c.insert(e, false) {
			added = append(added, e)
		}
	}
	limit := v.start
	for _, pt := range pts {
		add(limit, pt.Design)
		// The chain's next cap: one step below this point's tightened
		// cost. Always > 0 for non-final points (the sweep would have
		// stopped otherwise).
		limit = pt.Cost() - v.step
	}
	if complete && limit > 0 {
		// The sweep ended because the solve at this cap proved infeasible
		// (a chain otherwise only ends at cap <= 0).
		add(limit, nil)
	}
	if len(added) == 0 {
		return
	}
	v.c.tel.Inc(telemetry.CtrFrontierStores)
	v.c.tel.Emit(telemetry.EvFrontier, 0, float64(len(added)), "store")
	v.c.appendSpill(added)
}
