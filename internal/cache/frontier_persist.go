package cache

import (
	"encoding/json"

	"sos/internal/arch"
	"sos/internal/schedule"
	"sos/internal/specfile"
)

// frontierSpillRecord is one JSONL line of the frontier spill: the full
// problem in specfile form plus the whole chain. One line per store —
// upserts rewrite the merged entry, so on load the last line for a key
// wins (later lines can only be supersets of earlier ones). Caps and
// the terminal proof are spillFloats because an uncapped sweep's first
// point carries cap = +Inf, which plain JSON numbers cannot encode.
type frontierSpillRecord struct {
	V           int                  `json:"v"`
	Kind        string               `json:"kind"` // "frontier"
	Spec        json.RawMessage      `json:"spec"`
	Topology    string               `json:"topology"`
	TopoCost    float64              `json:"topo_cost,omitempty"`
	Memory      bool                 `json:"memory,omitempty"`
	NoOverlapIO bool                 `json:"no_overlap_io,omitempty"`
	Step        float64              `json:"step"`
	Term        spillFloat           `json:"term,omitempty"`
	Points      []frontierSpillPoint `json:"points"`
}

type frontierSpillPoint struct {
	Cap    spillFloat      `json:"cap"`
	Design json.RawMessage `json:"design"`
}

const frontierSpillKind = "frontier"

// appendFrontierSpill persists one stored frontier.
func (fs *FrontierStore) appendFrontierSpill(e *frontierEntry) {
	fs.spillMu.Lock()
	defer fs.spillMu.Unlock()
	if fs.spill == nil {
		return
	}
	if rec, err := frontierRecordOf(e); err == nil {
		fs.spill.append(rec)
	}
}

func frontierRecordOf(e *frontierEntry) (*frontierSpillRecord, error) {
	req := &e.probe.Req
	counts := make([]int, req.Pool.Library().NumTypes())
	for _, p := range req.Pool.Procs() {
		counts[p.Type]++
	}
	spec, err := json.Marshal(&specfile.Spec{
		Graph:   req.Graph,
		Library: req.Pool.Library(),
		Pool:    counts,
	})
	if err != nil {
		return nil, err
	}
	topoName, topoCost, _, err := topoParams(req.Topo)
	if err != nil {
		return nil, err
	}
	rec := &frontierSpillRecord{
		V:           spillVersion,
		Kind:        frontierSpillKind,
		Spec:        spec,
		Topology:    topoName,
		TopoCost:    topoCost,
		Memory:      req.Memory,
		NoOverlapIO: req.NoOverlapIO,
		Step:        e.step,
		Term:        spillFloat(e.term),
	}
	for _, fp := range e.points {
		d, err := schedule.EncodeDesign(fp.design)
		if err != nil {
			return nil, err
		}
		rec.Points = append(rec.Points, frontierSpillPoint{
			Cap:    spillFloat(fp.cap),
			Design: d,
		})
	}
	return rec, nil
}

// loadFrontierLine restores one spilled chain. Every restored chain is
// re-keyed from its own decoded problem, so a spill written by an older
// canonicalizer can only miss, never mislead.
func (fs *FrontierStore) loadFrontierLine(line []byte) bool {
	var rec frontierSpillRecord
	if err := json.Unmarshal(line, &rec); err != nil ||
		rec.V != spillVersion || rec.Kind != frontierSpillKind || rec.Step <= 0 {
		return false
	}
	spec, err := specfile.Parse(rec.Spec)
	if err != nil {
		return false
	}
	var topo arch.Topology
	switch rec.Topology {
	case "p2p":
		topo = arch.PointToPoint{}
	case "bus":
		topo = arch.Bus{Cost: rec.TopoCost}
	case "shmem":
		topo = arch.SharedMemory{Cost: rec.TopoCost}
	case "ring":
		topo = arch.Ring{}
	default:
		return false
	}
	req := Request{
		Graph:       spec.Graph,
		Pool:        spec.Instances(),
		Topo:        topo,
		Objective:   MinMakespan,
		Memory:      rec.Memory,
		NoOverlapIO: rec.NoOverlapIO,
	}
	p, err := Prepare(req)
	if err != nil {
		return false
	}
	e := &frontierEntry{
		key:   frontierKey(p.Family(), rec.Step),
		probe: p,
		step:  rec.Step,
		term:  float64(rec.Term),
	}
	for _, sp := range rec.Points {
		d, err := schedule.DecodeDesign(sp.Design, req.Graph, req.Pool, topo)
		if err != nil {
			return false
		}
		e.points = append(e.points, fpoint{
			design: d,
			cost:   d.Cost,
			perf:   d.Makespan,
			cap:    float64(sp.Cap),
		})
	}
	if len(e.points) == 0 && e.term == 0 {
		return false
	}
	fs.insertLoaded(e)
	return true
}

// insertLoaded installs a restored entry without touching telemetry or
// re-spilling (the line is already on disk). Later lines replace earlier
// ones for the same key — appendFrontierSpill writes the merged entry on
// every upsert, so the last line is the most complete.
func (fs *FrontierStore) insertLoaded(e *frontierEntry) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if el, ok := fs.byKey[e.key]; ok {
		el.Value = e
		fs.lru.MoveToFront(el)
		return
	}
	fs.byKey[e.key] = fs.lru.PushFront(e)
	for fs.lru.Len() > fs.capacity {
		back := fs.lru.Back()
		old := back.Value.(*frontierEntry)
		fs.lru.Remove(back)
		delete(fs.byKey, old.key)
	}
}
