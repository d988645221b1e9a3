package cache

import (
	"container/list"
	"fmt"
	"math"
	"sync"

	"sos/internal/schedule"
	"sos/internal/telemetry"
)

// limitEps absorbs float noise when comparing caps/deadlines along a
// family's bound axis. Matches the sweep's capEps.
const limitEps = 1e-9

// Options configures a Cache.
type Options struct {
	// Capacity bounds the number of cached proofs across all shards
	// (<= 0 selects the default, 4096). Eviction is LRU per shard.
	Capacity int
	// Shards is the number of independently locked segments (<= 0
	// selects 16). Requests of one family always map to one shard, so
	// cover-down scans stay shard-local.
	Shards int
	// PersistPath, when non-empty, appends every stored proof to a JSONL
	// spill file and warm-loads existing lines at construction.
	PersistPath string
	// Telemetry receives cache counters and EvCache trace events. Nil is
	// a no-op collector.
	Telemetry *telemetry.Collector
}

// Cache is a sharded, family-indexed LRU of proved synthesis results
// with single-flight deduplication. All methods are safe for concurrent
// use.
type Cache struct {
	capPerShard int
	tel         *telemetry.Collector
	shards      []*shard
	flightMu    sync.Mutex
	flights     map[Key]*flight
	spillMu     sync.Mutex
	spill       *spill

	loadedN, loadSkipped int
}

type shard struct {
	mu       sync.Mutex
	byKey    map[Key]*list.Element
	lru      *list.List // of *entry; front = most recent
	families map[FamilyKey][]*entry
}

// entry is one cached proof. Immutable after insertion.
type entry struct {
	key    Key
	family FamilyKey
	limit  float64 // cap/deadline it was proved at (+Inf = uncapped)

	infeasible bool
	design     *schedule.Design // nil iff infeasible
	// designLimit is the design's own coordinate on the bound axis:
	// design cost under MinMakespan, makespan under MinCost. The entry's
	// proof covers every request limit in [designLimit, limit].
	designLimit float64
	objVal      float64 // optimal objective value (+Inf when infeasible)
	nodes       int64   // search nodes the original proof cost

	canon *canon
	req   Request // problem context the design references (remap source)
}

// Probe is a canonicalized request: compute it once with Prepare, then
// use it for Lookup, WarmStarts, Do, and Store.
type Probe struct {
	Req   Request
	canon *canon
}

// Key reports the probe's full canonical key.
func (p *Probe) Key() Key { return p.canon.key }

// Family reports the probe's family key (cap/deadline excluded).
func (p *Probe) Family() FamilyKey { return p.canon.family }

// Limit reports the request's normalized bound on the family's cap axis
// (cost cap under MinMakespan with uncapped = +Inf, deadline under
// MinCost).
func (p *Probe) Limit() float64 { return p.canon.limit }

// Hit is a served cache result, already remapped onto the requester's
// own Graph/Pool/Topo.
type Hit struct {
	Infeasible bool
	Design     *schedule.Design // nil iff Infeasible
	Bound      float64          // proved optimal objective (+Inf when infeasible)
	Nodes      int64            // nodes the original proof cost
	Exact      bool             // same key; false = cover-down hit at a different cap
}

// New builds a cache. If Options.PersistPath is set, existing spill
// lines are loaded (corrupt or stale lines skipped) and future stores
// appended.
func New(opts Options) (*Cache, error) {
	if opts.Capacity <= 0 {
		opts.Capacity = 4096
	}
	if opts.Shards <= 0 {
		opts.Shards = 16
	}
	if opts.Shards > opts.Capacity {
		opts.Shards = opts.Capacity
	}
	c := &Cache{
		capPerShard: (opts.Capacity + opts.Shards - 1) / opts.Shards,
		tel:         opts.Telemetry,
		shards:      make([]*shard, opts.Shards),
		flights:     make(map[Key]*flight),
	}
	for i := range c.shards {
		c.shards[i] = &shard{
			byKey:    make(map[Key]*list.Element),
			lru:      list.New(),
			families: make(map[FamilyKey][]*entry),
		}
	}
	if opts.PersistPath != "" {
		sp, err := openSpill(opts.PersistPath)
		if err != nil {
			return nil, fmt.Errorf("cache: persist: %w", err)
		}
		c.spill = sp
		c.loadedN, c.loadSkipped = sp.replay(c.loadLine)
	}
	return c, nil
}

// Close flushes and closes the persistent spill, if any.
func (c *Cache) Close() error {
	c.spillMu.Lock()
	defer c.spillMu.Unlock()
	if c.spill == nil {
		return nil
	}
	err := c.spill.close()
	c.spill = nil
	return err
}

// Loaded reports how many spill lines were restored and skipped at
// construction.
func (c *Cache) Loaded() (restored, skipped int) { return c.loadedN, c.loadSkipped }

// Len reports the number of cached proofs.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// Prepare canonicalizes a request. It fails only for uncacheable inputs
// (unknown topology type); callers treat an error as "bypass the cache".
func Prepare(req Request) (*Probe, error) {
	cn, err := canonicalize(&req)
	if err != nil {
		return nil, err
	}
	return &Probe{Req: req, canon: cn}, nil
}

func (c *Cache) shardFor(f FamilyKey) *shard {
	// The family key is a SHA-256; its first word is uniform.
	i := (uint64(f[0])<<8 | uint64(f[1])) % uint64(len(c.shards))
	return c.shards[i]
}

// Lookup serves a proof for the probe if one is cached: an exact hit
// (same key) or a cover-down hit (same family, a proof at a different
// cap whose validity interval contains the requested cap). The returned
// design is remapped onto the requester's graph/pool; nil means miss.
//
// Only proofs are served — entries are proofs by construction (Store
// rejects anything else), so a budget-exhausted or heuristic result can
// never come out of here.
func (c *Cache) Lookup(p *Probe) *Hit {
	s := c.shardFor(p.canon.family)
	s.mu.Lock()
	var best *entry
	exact := false
	for _, e := range s.families[p.canon.family] {
		if e.key == p.canon.key {
			best, exact = e, true
			break
		}
		if e.covers(p.canon.limit) && (best == nil || e.nodes > best.nodes) {
			best = e
		}
	}
	if best != nil {
		if el, ok := s.byKey[best.key]; ok {
			s.lru.MoveToFront(el)
		}
	}
	s.mu.Unlock()

	if best == nil {
		c.tel.Inc(telemetry.CtrCacheMisses)
		c.tel.Emit(telemetry.EvCache, 0, p.canon.limit, "miss")
		return nil
	}
	hit, err := c.serve(best, p, exact)
	if err != nil {
		// Remap failure: treat as a miss rather than serving anything
		// questionable. (Only reachable on hash collision or a corrupt
		// spill entry that still validated.)
		c.tel.Inc(telemetry.CtrCacheMisses)
		c.tel.Emit(telemetry.EvCache, 0, p.canon.limit, "remap-fail")
		return nil
	}
	c.tel.Inc(telemetry.CtrCacheHits)
	label := "hit"
	if !exact {
		label = "cover"
	}
	c.tel.Emit(telemetry.EvCache, 0, p.canon.limit, label)
	return hit
}

// covers reports whether this proof decides a request of the same family
// at bound limit:
//
//   - An Optimal proof at cap C whose design sits at designLimit c is
//     optimal for every cap in [c, C] (cover-down: the frontier is a
//     step function, nothing changes between the design's own cost and
//     the cap it was proved under). Same shape for MinCost with
//     deadlines and makespans.
//   - An Infeasible proof at cap C rules out every cap <= C.
func (e *entry) covers(limit float64) bool {
	if e.infeasible {
		return limit <= e.limit+limitEps
	}
	return e.designLimit <= limit+limitEps && limit <= e.limit+limitEps
}

// serve translates a cached entry into the requester's frame.
func (c *Cache) serve(e *entry, p *Probe, exact bool) (*Hit, error) {
	h := &Hit{Infeasible: e.infeasible, Bound: e.objVal, Nodes: e.nodes, Exact: exact}
	if e.infeasible {
		return h, nil
	}
	d, err := remapDesign(e, p)
	if err != nil {
		return nil, err
	}
	h.Design = d
	return h, nil
}

// WarmStarts returns up to max cached designs of the probe's family that
// are feasible under the probe's bound, best objective first, remapped
// onto the requester's graph/pool. These are near-miss results: not
// proofs for this request, but valid warm incumbents for any engine
// (each is feasibility-checked downstream before use).
func (c *Cache) WarmStarts(p *Probe, max int) []*schedule.Design {
	if max <= 0 {
		return nil
	}
	s := c.shardFor(p.canon.family)
	s.mu.Lock()
	var cands []*entry
	for _, e := range s.families[p.canon.family] {
		if !e.infeasible && e.designLimit <= p.canon.limit+limitEps {
			cands = append(cands, e)
		}
	}
	s.mu.Unlock()
	if len(cands) == 0 {
		return nil
	}
	// Best objective first; ties by tighter design bound.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && better(cands[j], cands[j-1]); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	var out []*schedule.Design
	for _, e := range cands {
		if len(out) == max {
			break
		}
		if d, err := remapDesign(e, p); err == nil {
			out = append(out, d)
		}
	}
	if len(out) > 0 {
		c.tel.Inc(telemetry.CtrCacheNearHits)
		c.tel.Emit(telemetry.EvCache, 0, float64(len(out)), "near")
	}
	return out
}

func better(a, b *entry) bool {
	if a.objVal != b.objVal {
		return a.objVal < b.objVal
	}
	return a.designLimit < b.designLimit
}

// StoreResult is what Store accepts: the outcome of one solve.
type StoreResult struct {
	Optimal    bool
	Infeasible bool
	Design     *schedule.Design // required when Optimal
	Bound      float64          // proved objective value when Optimal
	Nodes      int64
}

// Store records a proof for the probe's key. Results that are not proofs
// — feasible-but-unproven incumbents, budget-exhausted or canceled runs,
// heuristic answers — are rejected (returns false): serving them later
// would violate the caller's request for a proof (Spec.Anytime only
// loosens what the *caller* accepts, never what the cache may claim).
func (c *Cache) Store(p *Probe, r StoreResult) bool {
	if !r.Optimal && !r.Infeasible {
		return false
	}
	if r.Optimal && r.Design == nil {
		return false
	}
	e := &entry{
		key:    p.canon.key,
		family: p.canon.family,
		limit:  p.canon.limit,
		nodes:  r.Nodes,
		canon:  p.canon,
		req:    p.Req,
	}
	if r.Infeasible {
		e.infeasible = true
		e.objVal = math.Inf(1)
		e.designLimit = math.Inf(1)
	} else {
		e.design = r.Design
		e.objVal = r.Bound
		if p.Req.Objective == MinCost {
			e.designLimit = r.Design.Makespan
		} else {
			e.designLimit = r.Design.Cost
		}
	}
	if !c.insert(e) {
		return false
	}
	c.tel.Emit(telemetry.EvCache, 0, e.limit, "store")
	c.appendSpill(e)
	return true
}

// insert adds the entry to its shard unless the key is already present,
// evicting LRU overflow. Reports whether the entry was added.
func (c *Cache) insert(e *entry) bool {
	s := c.shardFor(e.family)
	s.mu.Lock()
	if el, ok := s.byKey[e.key]; ok {
		// Already proved (a concurrent solver beat us); proofs for one
		// key are interchangeable, keep the incumbent.
		s.lru.MoveToFront(el)
		s.mu.Unlock()
		return false
	}
	s.byKey[e.key] = s.lru.PushFront(e)
	s.families[e.family] = append(s.families[e.family], e)
	var evicted int
	for s.lru.Len() > c.capPerShard {
		back := s.lru.Back()
		old := back.Value.(*entry)
		s.lru.Remove(back)
		delete(s.byKey, old.key)
		fam := s.families[old.family]
		for i, fe := range fam {
			if fe == old {
				fam[i] = fam[len(fam)-1]
				fam = fam[:len(fam)-1]
				break
			}
		}
		if len(fam) == 0 {
			delete(s.families, old.family)
		} else {
			s.families[old.family] = fam
		}
		evicted++
	}
	s.mu.Unlock()
	if evicted > 0 {
		c.tel.Add(telemetry.CtrCacheEvictions, int64(evicted))
		c.tel.Emit(telemetry.EvCache, 0, float64(evicted), "evict")
	}
	return true
}
