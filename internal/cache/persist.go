package cache

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"sos/internal/arch"
	"sos/internal/schedule"
	"sos/internal/specfile"
)

// spillRecord is one JSONL line of the persistent spill: the full
// problem in specfile form plus the proof. Lines are self-contained so a
// restarted process (or a different machine) can rebuild the entry, and
// the canonical key is recomputed on load rather than trusted from disk.
//
// CostCap, Deadline, and Bound are spillFloats, not float64s: an
// unbounded-deadline MinCost proof carries Deadline = +Inf, which
// encoding/json rejects outright — with plain floats json.Marshal fails
// and appendSpill (silent by design) drops the line, so the proof
// silently never survives a restart. The spillFloat form writes
// non-finite values as strings and round-trips them exactly, which
// matters doubly for Deadline: the restored request is re-keyed through
// Prepare, so a lossy decode would file the proof under the wrong key.
type spillRecord struct {
	V           int             `json:"v"`
	Spec        json.RawMessage `json:"spec"` // {"graph":…,"library":…,"pool":…}
	Topology    string          `json:"topology"`
	TopoCost    float64         `json:"topo_cost,omitempty"`
	Objective   string          `json:"objective"` // "makespan" | "cost"
	CostCap     spillFloat      `json:"cost_cap,omitempty"`
	Deadline    spillFloat      `json:"deadline,omitempty"`
	Memory      bool            `json:"memory,omitempty"`
	NoOverlapIO bool            `json:"no_overlap_io,omitempty"`
	Status      string          `json:"status"` // "optimal" | "infeasible"
	Bound       spillFloat      `json:"bound,omitempty"`
	Nodes       int64           `json:"nodes,omitempty"`
	Design      json.RawMessage `json:"design,omitempty"`
}

// spillFloat is a float64 that survives JSON at non-finite values:
// ±Inf and NaN marshal as the strings "+Inf"/"-Inf"/"NaN" (encoding/json
// rejects them as numbers), finite values marshal as plain numbers, so
// spill files written before this type existed still parse.
type spillFloat float64

func (f spillFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(v)
}

func (f *spillFloat) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "+Inf", "Inf":
			*f = spillFloat(math.Inf(1))
		case "-Inf":
			*f = spillFloat(math.Inf(-1))
		case "NaN":
			*f = spillFloat(math.NaN())
		default:
			return fmt.Errorf("cache: bad spill float %q", s)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = spillFloat(v)
	return nil
}

const spillVersion = 1

// spill is one JSONL persistence file, shared by the proof cache and the
// frontier store: replayed once when the store opens, then appended to.
type spill struct {
	f *os.File
	w *bufio.Writer
}

func openSpill(path string) (*spill, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	return &spill{f: f, w: bufio.NewWriter(f)}, nil
}

func (s *spill) close() error {
	err := s.w.Flush()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// replay feeds every complete line of the file to load and counts the
// lines it restored and skipped. Corrupt, stale, or otherwise unusable
// lines are skipped — the spill is advisory. A torn tail (bytes after the
// last newline, left by a crash mid-append) is counted as skipped and cut
// off, so the next append starts a line of its own instead of gluing onto
// the partial one and being lost with it on the following load. The file
// is left positioned at its end for appends.
func (s *spill) replay(load func(line []byte) bool) (restored, skipped int) {
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return 0, 0
	}
	r := bufio.NewReader(s.f)
	var whole int64 // bytes through the last newline
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF && len(line) > 0 {
			skipped++
			// A failed cut costs only the next appended record; the
			// spill is advisory.
			_ = s.f.Truncate(whole)
		}
		if err != nil {
			break
		}
		whole += int64(len(line))
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			continue
		}
		if load(line) {
			restored++
		} else {
			skipped++
		}
	}
	s.f.Seek(0, io.SeekEnd)
	return restored, skipped
}

// append writes v as one JSONL line. Failures are silent by design: the
// spill is an optimization, and the in-memory entry is already live.
func (s *spill) append(v any) {
	line, err := json.Marshal(v)
	if err != nil {
		return
	}
	if _, err := s.w.Write(append(line, '\n')); err != nil {
		return
	}
	s.w.Flush()
}

// appendSpill persists one stored proof.
func (c *Cache) appendSpill(e *entry) {
	c.spillMu.Lock()
	defer c.spillMu.Unlock()
	if c.spill == nil {
		return
	}
	if rec, err := recordOf(e); err == nil {
		c.spill.append(rec)
	}
}

func recordOf(e *entry) (*spillRecord, error) {
	counts := make([]int, e.req.Pool.Library().NumTypes())
	for _, p := range e.req.Pool.Procs() {
		counts[p.Type]++
	}
	spec, err := json.Marshal(&specfile.Spec{
		Graph:   e.req.Graph,
		Library: e.req.Pool.Library(),
		Pool:    counts,
	})
	if err != nil {
		return nil, err
	}
	topoName, topoCost, _, err := topoParams(e.req.Topo)
	if err != nil {
		return nil, err
	}
	rec := &spillRecord{
		V:           spillVersion,
		Spec:        spec,
		Topology:    topoName,
		TopoCost:    topoCost,
		CostCap:     spillFloat(e.req.CostCap),
		Deadline:    spillFloat(e.req.Deadline),
		Memory:      e.req.Memory,
		NoOverlapIO: e.req.NoOverlapIO,
		Nodes:       e.nodes,
	}
	if e.req.Objective == MinCost {
		rec.Objective = "cost"
	} else {
		rec.Objective = "makespan"
	}
	if e.infeasible {
		rec.Status = "infeasible"
	} else {
		rec.Status = "optimal"
		rec.Bound = spillFloat(e.objVal)
		d, err := schedule.EncodeDesign(e.design)
		if err != nil {
			return nil, err
		}
		rec.Design = d
	}
	return rec, nil
}

// loadLine restores one spilled proof. Every restored proof is re-keyed
// from its own decoded problem, so a spill written by an older
// canonicalizer can only miss, never mislead.
func (c *Cache) loadLine(line []byte) bool {
	var rec spillRecord
	if err := json.Unmarshal(line, &rec); err != nil || rec.V != spillVersion {
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
		CostCap:     float64(rec.CostCap),
		Deadline:    float64(rec.Deadline),
		Memory:      rec.Memory,
		NoOverlapIO: rec.NoOverlapIO,
	}
	if rec.Objective == "cost" {
		req.Objective = MinCost
	} else if rec.Objective != "makespan" {
		return false
	}
	p, err := Prepare(req)
	if err != nil {
		return false
	}
	e := &entry{
		key:    p.canon.key,
		family: p.canon.family,
		limit:  p.canon.limit,
		nodes:  rec.Nodes,
		canon:  p.canon,
		req:    req,
	}
	switch rec.Status {
	case "infeasible":
		e.infeasible = true
		e.objVal = math.Inf(1)
		e.designLimit = math.Inf(1)
	case "optimal":
		d, err := schedule.DecodeDesign(rec.Design, req.Graph, req.Pool, topo)
		if err != nil {
			return false
		}
		e.design = d
		e.objVal = float64(rec.Bound)
		if req.Objective == MinCost {
			e.designLimit = d.Makespan
		} else {
			e.designLimit = d.Cost
		}
	default:
		return false
	}
	return c.insert(e)
}
