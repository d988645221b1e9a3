package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"sos/internal/arch"
	"sos/internal/expts"
	"sos/internal/specfile"
	"sos/internal/taskgraph"
)

// instance is one generated synthesis problem.
type instance struct {
	g      *taskgraph.Graph
	lib    *arch.Library
	copies []int
	pool   *arch.Instances
}

func newInstance(g *taskgraph.Graph, lib *arch.Library, copies []int) (*instance, error) {
	if err := g.Freeze(); err != nil {
		return nil, err
	}
	return &instance{g: g, lib: lib, copies: copies, pool: arch.InstancePool(lib, copies)}, nil
}

// document encodes the instance as a specfile document, the form a
// service client sends.
func (in *instance) document() (json.RawMessage, error) {
	return json.Marshal(specfile.Spec{Graph: in.g, Library: in.lib, Pool: in.copies})
}

// rngFor derives an independent generator for item i of a stream named
// tag under seed, so that every generated item depends only on
// (seed, tag, i) and not on how many items were drawn before it.
func rngFor(seed int64, tag string, i int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, tag, i)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// permutations returns every permutation of 0..n-1 in lexicographic
// order (the identity first).
func permutations(n int) [][]int {
	var out [][]int
	used := make([]bool, n)
	var rec func(p []int)
	rec = func(p []int) {
		if len(p) == n {
			out = append(out, append([]int(nil), p...))
			return
		}
		for v := 0; v < n; v++ {
			if !used[v] {
				used[v] = true
				rec(append(p, v))
				used[v] = false
			}
		}
	}
	rec(nil)
	return out
}

var (
	subtaskPerms = permutations(4) // Example 1 has 4 subtasks,
	smallPerms   = permutations(3) // 3 arcs and 3 processor types.
)

// paperLabeling returns labeling i of Example 1 under seed. There are
// 24 labelings: labeling k inserts the subtasks in order k of 24, the
// arcs in order k mod 6 and the processor types in order k/4 of 6, so
// together they cover every subtask order once and every arc and type
// order four times. A run visits them in turn from an offset and with
// names the seed picks; seed 0 starts from the paper's own labeling and
// names. Every run thus meets the same spread of search trees, and
// medians compare across seeds. Frontiers are invariant under
// relabeling, so every labeling must reproduce Table II.
func paperLabeling(seed int64, i int) (*instance, error) {
	off := 0
	subName, typeName := "S%d", "p%d"
	if seed != 0 {
		off = rngFor(seed, "paper", 0).Intn(len(subtaskPerms))
		subName, typeName = fmt.Sprintf("t%d.%%d", seed), fmt.Sprintf("q%d.%%d", seed)
	}
	k := (off + i) % len(subtaskPerms)
	return relabelExample1(subtaskPerms[k], smallPerms[k%6], smallPerms[k/4], subName, typeName)
}

// relabelExample1 rebuilds Example 1 with subtasks inserted in order
// sp (sp[new position] = paper index), arcs in order ap and processor
// types in order tp. The paper labeling is the identity on all three.
func relabelExample1(sp, ap, tp []int, subName, typeName string) (*instance, error) {
	g0, lib0 := expts.Example1()
	newID := make([]taskgraph.SubtaskID, len(sp))
	g := taskgraph.New(g0.Name)
	for pos, old := range sp {
		newID[old] = g.AddSubtask(fmt.Sprintf(subName, pos+1))
	}
	arcs := g0.Arcs()
	for _, ai := range ap {
		a := arcs[ai]
		g.AddArc(newID[a.Src], newID[a.Dst], taskgraph.ArcSpec{
			Volume: a.Volume, FR: a.FR, FA: a.FA, SrcPort: a.SrcPort, DstPort: a.DstPort})
	}
	lib := arch.NewLibrary(lib0.Name, lib0.LinkCost, lib0.RemoteDelay, lib0.LocalDelay)
	for pos, ti := range tp {
		exec := make([]float64, len(sp))
		for old := range sp {
			exec[newID[old]] = lib0.Exec(arch.TypeID(ti), taskgraph.SubtaskID(old))
		}
		lib.AddType(fmt.Sprintf(typeName, pos+1), lib0.Type(arch.TypeID(ti)).Cost, exec)
	}
	return newInstance(g, lib, []int{2, 2, 2})
}

// scaleSlot is one (shape, size) cell of the structured-scale corpus.
type scaleSlot struct {
	shape string
	size  int
}

// scaleSlots is the structured-scale corpus layout: both shapes at 16
// sizes spread evenly over 200-300 subtasks. The seed draws each cell's
// structure, never its shape or size, so every run measures the same
// size mix; a run of about 40 operations meets every cell once and
// revisits a part of the corpus (see scaleOrder).
var scaleSlots = func() []scaleSlot {
	var out []scaleSlot
	for s := 0; s < 16; s++ {
		n := 200 + (100*s+7)/15
		out = append(out, scaleSlot{"series-parallel", n}, scaleSlot{"fork-join", n})
	}
	return out
}()

// scaleOrder is the order a structured-scale run visits the corpus in.
// Operation time grows with size, and a run fits one pass over the 32
// cells plus a part of a second, so the order spreads every stretch of
// it over the sizes: the size ranks follow the 4-bit bit-reversal
// sequence (0, 8, 4, 12, 2, ...) under a seeded XOR mask, every 16 visits
// meet each size once, and the second 16 take each size in the other
// shape. The operations past the first pass then sample the sizes
// evenly, and which of them a run fits moves its median little.
func scaleOrder(seed int64) []int {
	r := rngFor(seed, "scale-order", 0)
	mask, flip := r.Intn(16), r.Intn(2)
	out := make([]int, len(scaleSlots))
	for i := range out {
		k := i % 16
		rev := (k&1)<<3 | (k&2)<<1 | (k&4)>>1 | (k&8)>>3
		size := rev ^ mask
		out[i] = 2*size + (i/16+size+flip)%2
	}
	return out
}

// scaleInstance generates corpus cell j under seed: a series-parallel or
// fork-join graph whose mapping is forced by capability (subtask a runs
// only on processor type a, one instance each), so the MILP closes at
// the root and the work is model build plus one large LP.
func scaleInstance(seed int64, j int) (*instance, error) {
	slot := scaleSlots[j]
	r := rngFor(seed, "scale", j)
	spec := taskgraph.StructuredSpec{Subtasks: slot.size, MaxFan: 4}
	var g *taskgraph.Graph
	if slot.shape == "fork-join" {
		g = taskgraph.ForkJoin(r, spec)
	} else {
		g = taskgraph.SeriesParallel(r, spec)
	}
	lib := arch.NewLibrary("forced", 1, 1, 0)
	copies := make([]int, slot.size)
	for i := range copies {
		exec := make([]float64, slot.size)
		for a := range exec {
			exec[a] = arch.NoTime
		}
		exec[i] = float64(1 + r.Intn(5))
		lib.AddType("", 1, exec)
		copies[i] = 1
	}
	return newInstance(g, lib, copies)
}

// forcedMakespan is the reference optimum of a forced-mapping instance:
// every subtask has its own processor and every arc its own
// point-to-point link, so nothing contends and the optimal makespan is
// the longest path, counting execution times on nodes and remote
// transfer delays (volume × D_CR) on arcs.
func forcedMakespan(in *instance) (float64, error) {
	order, err := in.g.TopoOrder()
	if err != nil {
		return 0, err
	}
	finish := make([]float64, in.g.NumSubtasks())
	best := 0.0
	for _, a := range order {
		start := 0.0
		for _, e := range in.g.In(a) {
			arc := in.g.Arc(e)
			start = math.Max(start, finish[arc.Src]+arc.Volume*in.lib.RemoteDelay)
		}
		var exec float64
		for _, t := range in.lib.CapableTypes(a) {
			exec = in.lib.Exec(t, a)
		}
		finish[a] = start + exec
		best = math.Max(best, finish[a])
	}
	return best, nil
}

// contendedInstance draws an 8-9-subtask series-parallel instance on a
// contended three-type pool (two copies of type 0, one of each other
// type) under a cost cap of 60% of the whole pool's processor cost, and
// returns it with the cap. Type 0 runs every subtask, so a one-processor
// design always fits under the cap and the instance is feasible by
// construction. The combinatorial engine explores from about 10^2 to
// over 10^4 mapping nodes on these.
func contendedInstance(r *rand.Rand) (*taskgraph.Graph, *arch.Library, float64) {
	g := taskgraph.SeriesParallel(r, taskgraph.StructuredSpec{Subtasks: 8 + r.Intn(2), MaxFan: 3})
	n := g.NumSubtasks()
	lib := arch.NewLibrary("contended", 1, 1, 0)
	poolCost := 0.0
	for t, copies := range contendedPool {
		exec := make([]float64, n)
		for a := range exec {
			exec[a] = float64(1 + r.Intn(5))
			if t > 0 && r.Float64() < 0.15 {
				exec[a] = arch.NoTime
			}
		}
		cost := float64(1 + r.Intn(6))
		lib.AddType(fmt.Sprintf("k%d", t), cost, exec)
		poolCost += cost * float64(copies)
	}
	return g, lib, 0.6 * poolCost
}

// contendedPool is the per-type instance count of contended instances.
var contendedPool = []int{2, 1, 1}

// contendedBases are the contended instances (draws of the stream
// "contended" under seed 0) that sosd-mixed rescales into its hot specs
// and misses: the first 48 of the 400 draws whose combinatorial search,
// uncached, explores 1500-3000 mapping nodes, the middle of the
// generator's range (about 700 at its 10th percentile, 2000 at its 50th
// and 9900 at its 90th). A narrow band keeps every run's set-up work
// and miss latencies alike, so the p90 that falls inside the misses
// moves with the engine and not with which instances a run drew.
var contendedBases = []int{7, 13, 15, 16, 19, 22, 27, 30, 31, 32, 34, 36, 37, 47, 49, 52,
	61, 62, 65, 66, 67, 70, 74, 79, 81, 82, 84, 89, 92, 94, 96, 97,
	100, 107, 109, 113, 117, 118, 123, 128, 130, 136, 138, 139, 142, 143, 145, 146}

// scaledContended returns instance n of the seed's stream tag: base
// instance contendedBases[base], with every execution time and arc
// volume multiplied by a factor lo + (0, 1) drawn from (seed, tag, n).
// Scaling all times alike changes no decision of the search, so the
// instances keep their base's difficulty; but every scaled copy is a
// problem family of its own, which no cache entry for another copy
// covers.
func scaledContended(seed int64, tag string, n, base int, lo float64) (*instance, float64, error) {
	g, lib, costCap := contendedInstance(rngFor(0, "contended", contendedBases[base]))
	k := lo + float64(1+rngFor(seed, tag, n).Intn(999))/1000
	in, err := newInstance(g.ScaleVolumes(k), lib.ScaleExec(k), contendedPool)
	return in, costCap, err
}

// hotInstance generates hot spec j of the sosd-mixed workload under
// seed. Hot spec j is a copy of the same base for every seed, the bases
// spread evenly through contendedBases, so every seed's set-up proves
// problems of one difficulty. Its scale factor lies in (2, 3), clear of
// every miss's, so no miss can share a hot spec's cache family.
func hotInstance(seed int64, j int) (*instance, float64, error) {
	return scaledContended(seed, "hot", j, j*len(contendedBases)/hotSpecs, 2)
}

// missInstance generates fresh instance m of the sosd-mixed miss stream
// under seed, with a scale factor in (1, 2). The misses visit the bases
// in turn from an offset the seed picks.
func missInstance(seed int64, m int) (*instance, float64, error) {
	off := rngFor(seed, "miss-offset", 0).Intn(len(contendedBases))
	return scaledContended(seed, "miss", m, (off+m)%len(contendedBases), 1)
}
