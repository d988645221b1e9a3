package cache

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sos/internal/arch"
	"sos/internal/expts"
	"sos/internal/taskgraph"
)

// negZeroGraph builds a two-subtask graph whose arc carries the given
// FR/FA values and whose sink has the given memory requirement, so the
// test can spell a zero as -0 at every float site that feeds the key.
func negZeroGraph(fr, fa, mem float64) (*taskgraph.Graph, *arch.Library) {
	g := taskgraph.New("negzero")
	a := g.AddSubtask("a")
	b := g.AddSubtask("b")
	g.SetMem(b, mem)
	g.AddArc(a, b, taskgraph.ArcSpec{Volume: 2, FR: fr, FA: fa, StrictFA: true})
	g.MustFreeze()
	lib := arch.NewLibrary("negzero-lib", 1, 1, 0)
	lib.AddType("p", 3, []float64{1, 2})
	return g, lib
}

// TestCanonicalKeyNegZero pins the satellite bugfix: -0 and 0 are the
// same number, and a JSON spec can legally spell either, so every float
// that reaches the key — the limit axis, arc Volume/FR/FA, and memory —
// must collapse -0 onto 0. Before normBits was threaded through all
// sites, the limit and arc hashes used raw Float64bits and a -0 spelling
// missed the cache entry for 0.
func TestCanonicalKeyNegZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	p2p := arch.PointToPoint{}

	// Limit axis, MinCost: Deadline -0 vs 0 hash to the same key.
	pos := mustProbe(t, Request{Graph: g, Pool: pool, Topo: p2p, Objective: MinCost, Deadline: 0})
	neg := mustProbe(t, Request{Graph: g, Pool: pool, Topo: p2p, Objective: MinCost, Deadline: negZero})
	if pos.Key() != neg.Key() {
		t.Fatalf("MinCost deadline -0 and 0 produced different keys")
	}

	// Limit axis, MinMakespan: cap -0 and cap 0 both mean "uncapped".
	pos = mustProbe(t, Request{Graph: g, Pool: pool, Topo: p2p, CostCap: 0})
	neg = mustProbe(t, Request{Graph: g, Pool: pool, Topo: p2p, CostCap: negZero})
	if pos.Key() != neg.Key() {
		t.Fatalf("cost cap -0 and 0 produced different keys")
	}

	// Arc FR/FA and subtask memory: a graph spelling those zeros as -0
	// is the same problem.
	gp, libp := negZeroGraph(0, 0, 0)
	gn, libn := negZeroGraph(negZero, negZero, negZero)
	pos = mustProbe(t, Request{Graph: gp, Pool: arch.InstancePool(libp, []int{2}), Topo: p2p, CostCap: 9})
	neg = mustProbe(t, Request{Graph: gn, Pool: arch.InstancePool(libn, []int{2}), Topo: p2p, CostCap: 9})
	if pos.Key() != neg.Key() {
		t.Fatalf("arc FR/FA/mem -0 and 0 produced different keys")
	}
}

// TestPersistNonFinite pins the second satellite bugfix: an
// unbounded-deadline MinCost proof carries Deadline = +Inf, which
// encoding/json rejects as a number — before spillFloat, json.Marshal
// failed inside appendSpill (silent by design) and the proof never
// survived a restart. The spill must write it, restore it, and serve it.
func TestPersistNonFinite(t *testing.T) {
	g, lib := expts.Example1()
	pool := expts.Example1Pool(lib)
	p2p := arch.PointToPoint{}
	path := filepath.Join(t.TempDir(), "spill.jsonl")

	c1 := newCache(t, Options{PersistPath: path})
	p := mustProbe(t, Request{Graph: g, Pool: pool, Topo: p2p, Objective: MinCost, Deadline: math.Inf(1)})
	res := prove(t, c1, p)
	if res.Design == nil || res.Design.Cost != 4 {
		t.Fatalf("unbounded-deadline MinCost: got %+v, want the cost-4 design", res.Design)
	}
	if err := c1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The line must exist on disk with the non-finite deadline (the
	// proof's limit) spelled as a string — a plain-number +Inf would have
	// been dropped entirely.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read spill: %v", err)
	}
	if !strings.Contains(string(raw), `"limit":"+Inf"`) {
		t.Fatalf("spill line missing string-encoded +Inf deadline limit: %s", raw)
	}

	c2 := newCache(t, Options{PersistPath: path})
	if n, sk := c2.Loaded(); n != 1 || sk != 0 {
		t.Fatalf("Loaded = (%d, %d), want (1, 0)", n, sk)
	}
	hit := c2.Lookup(p)
	if hit == nil || !hit.Exact || hit.Design == nil {
		t.Fatalf("restored unbounded-deadline proof not served exactly: %+v", hit)
	}
	if hit.Design.Cost != res.Design.Cost {
		t.Fatalf("restored design cost %v, want %v", hit.Design.Cost, res.Design.Cost)
	}
	// Cover-down off the restored entry: any deadline at or above the
	// design's makespan is covered by the unbounded proof.
	cov := c2.Lookup(mustProbe(t, Request{Graph: g, Pool: pool, Topo: p2p, Objective: MinCost,
		Deadline: res.Design.Makespan + 1}))
	if cov == nil || cov.Design == nil || cov.Design.Cost != res.Design.Cost {
		t.Fatalf("restored proof must cover tighter finite deadlines")
	}
}
