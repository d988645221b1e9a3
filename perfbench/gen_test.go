package main

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"sos"
	"sos/internal/arch"
	"sos/internal/cache"
	"sos/internal/exact"
	"sos/internal/expts"
)

func TestMixedScheduleIsSeeded(t *testing.T) {
	gen := func(seed int64) []scheduled {
		t.Helper()
		hot, err := hotRequests(seed)
		if err != nil {
			t.Fatal(err)
		}
		s, err := mixedSchedule(seed, 3*time.Second, hot)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b, other := gen(5), gen(5), gen(6)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("schedule lengths %d and %d", len(a), len(b))
	}
	same := 0
	for i := range a {
		if a[i].at != b[i].at || a[i].req.path != b[i].req.path || !bytes.Equal(a[i].req.body, b[i].req.body) {
			t.Fatalf("request %d differs between two schedules of seed 5", i)
		}
		if i < len(other) && bytes.Equal(a[i].req.body, other[i].req.body) {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 5 and 6 give the same request bodies")
	}
}

func TestNodeCountsRepeat(t *testing.T) {
	ctx := context.Background()
	in, err := paperLabeling(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	milpNodes := func() int64 {
		tel := sos.NewTelemetry(nil)
		if _, err := sos.Frontier(ctx, sos.Spec{Graph: in.g, Library: in.lib, Pool: in.pool,
			Engine: sos.EngineMILP, Telemetry: tel}); err != nil {
			t.Fatal(err)
		}
		return tel.Counters()["nodes_expanded"]
	}
	if a, b := milpNodes(), milpNodes(); a != b || a == 0 {
		t.Errorf("MILP nodes %d then %d on the same labeling", a, b)
	}
	for m := 0; m < 4; m++ {
		in, costCap, err := missInstance(5, m)
		if err != nil {
			t.Fatal(err)
		}
		nodes := func() [2]int {
			r, err := exact.Synthesize(ctx, in.g, in.pool, arch.PointToPoint{}, exact.Options{CostCap: costCap})
			if err != nil || r.Design == nil || !r.Optimal {
				t.Fatalf("miss %d: no proof (err %v)", m, err)
			}
			return [2]int{r.Nodes, r.Sched}
		}
		if a, b := nodes(), nodes(); a != b {
			t.Errorf("miss %d: exact nodes %v then %v", m, a, b)
		}
	}
}

func TestPaperLabelingSeedZeroIsThePaper(t *testing.T) {
	in, err := paperLabeling(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, lib := expts.Example1()
	paper, err := newInstance(g, lib, []int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := in.document()
	want, _ := paper.document()
	if !bytes.Equal(got, want) {
		t.Fatalf("seed 0 labeling 0 is\n%s\nwant the paper's\n%s", got, want)
	}
	for i, a := range g.Arcs() {
		b := in.g.Arc(a.ID)
		if a.Src != b.Src || a.Dst != b.Dst || a.SrcPort != b.SrcPort || a.DstPort != b.DstPort {
			t.Fatalf("arc %d is %+v, want %+v", i, b, a)
		}
	}
}

// TestRescaledMissesAreFreshFamilies pins that two misses rescaled from
// one base instance share no cache family, so neither can serve the other.
func TestRescaledMissesAreFreshFamilies(t *testing.T) {
	family := func(m int) cache.FamilyKey {
		in, costCap, err := missInstance(5, m)
		if err != nil {
			t.Fatal(err)
		}
		p, err := cache.Prepare(cache.Request{Graph: in.g, Pool: in.pool, Topo: arch.PointToPoint{}, CostCap: costCap})
		if err != nil {
			t.Fatal(err)
		}
		return p.Family()
	}
	if a, b := family(1), family(1+len(contendedBases)); reflect.DeepEqual(a, b) {
		t.Fatal("rescaled copies of one base instance share a cache family")
	}
}

// TestScaleOrderIsBalanced pins that a structured-scale pass visits every
// cell once and that every 16 consecutive visits, wherever they start,
// meet each of the 16 sizes once.
func TestScaleOrderIsBalanced(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		order := scaleOrder(seed)
		seen := map[int]bool{}
		for _, j := range order {
			seen[j] = true
		}
		if len(order) != len(scaleSlots) || len(seen) != len(scaleSlots) {
			t.Fatalf("seed %d: order %v is not a permutation of the corpus", seed, order)
		}
		for start := range order {
			sizes := map[int]bool{}
			for i := start; i < start+16; i++ {
				sizes[scaleSlots[order[i%len(order)]].size] = true
			}
			if len(sizes) != 16 {
				t.Fatalf("seed %d: the 16 visits from %d meet %d sizes", seed, start, len(sizes))
			}
		}
	}
}
