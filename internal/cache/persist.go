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
// problem in specfile form plus one or more proofs of its family. A point
// solve writes a one-proof line; a stored sweep writes its chain (every
// frontier proof plus the terminal infeasibility proof) as one line.
// Lines are self-contained so a restarted process (or a different
// machine) can rebuild the entries, and every key is recomputed on load
// rather than trusted from disk.
type spillRecord struct {
	V           int             `json:"v"`
	Spec        json.RawMessage `json:"spec"` // {"graph":…,"library":…,"pool":…}
	Topology    string          `json:"topology"`
	TopoCost    float64         `json:"topo_cost,omitempty"`
	Objective   string          `json:"objective"` // "makespan" | "cost"
	Memory      bool            `json:"memory,omitempty"`
	NoOverlapIO bool            `json:"no_overlap_io,omitempty"`
	Proofs      []spillProof    `json:"proofs"`
}

// spillProof is one proof of a spill line. Limit and Bound are
// spillFloats, not float64s: an uncapped proof and an unbounded-deadline
// MinCost proof sit at limit +Inf, which encoding/json rejects as a
// number, and appendSpill (silent by design) would drop the line. The
// limit also re-keys the proof on load, so it must round-trip exactly.
type spillProof struct {
	Limit    spillFloat      `json:"limit"`
	Status   string          `json:"status"` // "optimal" | "infeasible"
	Bound    spillFloat      `json:"bound,omitempty"`
	Nodes    int64           `json:"nodes,omitempty"`
	Frontier bool            `json:"frontier,omitempty"`
	Design   json.RawMessage `json:"design,omitempty"`
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

// spillVersion 2 is the one-store line (a proof list per line). Lines of
// any other version — including the version-1 proof and frontier lines
// of the former two-store layout — are skipped and counted; the spill is
// advisory, so an upgrade costs only re-solves.
const spillVersion = 2

// spill is the cache's JSONL persistence file: replayed once when the
// cache opens, then appended to.
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

// appendSpill persists proofs of one family and request as one line.
func (c *Cache) appendSpill(es []*entry) {
	c.spillMu.Lock()
	defer c.spillMu.Unlock()
	if c.spill == nil {
		return
	}
	if rec, err := recordOf(es); err == nil {
		c.spill.append(rec)
	}
}

// recordOf encodes proofs sharing es[0]'s problem as one spill line.
func recordOf(es []*entry) (*spillRecord, error) {
	req := &es[0].req
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
	rec := &spillRecord{
		V:           spillVersion,
		Spec:        spec,
		Topology:    topoName,
		TopoCost:    topoCost,
		Objective:   "makespan",
		Memory:      req.Memory,
		NoOverlapIO: req.NoOverlapIO,
	}
	if req.Objective == MinCost {
		rec.Objective = "cost"
	}
	for _, e := range es {
		pr := spillProof{Limit: spillFloat(e.limit), Nodes: e.nodes, Frontier: e.frontier, Status: "infeasible"}
		if !e.infeasible {
			pr.Status = "optimal"
			pr.Bound = spillFloat(e.objVal)
			if pr.Design, err = schedule.EncodeDesign(e.design); err != nil {
				return nil, err
			}
		}
		rec.Proofs = append(rec.Proofs, pr)
	}
	return rec, nil
}

// loadLine restores one spill line. The line is all or nothing: one
// unusable proof skips it whole. Every restored proof is re-keyed from
// its own decoded problem, so a spill written by an older canonicalizer
// can only miss, never mislead; and a design must validate and sit
// within its proof's limit, so a corrupt line cannot serve a design that
// breaks the cap it answers.
func (c *Cache) loadLine(line []byte) bool {
	var rec spillRecord
	if err := json.Unmarshal(line, &rec); err != nil || rec.V != spillVersion || len(rec.Proofs) == 0 {
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
		Memory:      rec.Memory,
		NoOverlapIO: rec.NoOverlapIO,
	}
	switch rec.Objective {
	case "makespan":
	case "cost":
		req.Objective = MinCost
	default:
		return false
	}
	p, err := Prepare(req)
	if err != nil {
		return false
	}
	es := make([]*entry, 0, len(rec.Proofs))
	for _, pr := range rec.Proofs {
		limit := float64(pr.Limit)
		if math.IsNaN(limit) || req.Objective == MinMakespan && limit <= 0 {
			return false
		}
		var e *entry
		switch pr.Status {
		case "infeasible":
			if pr.Frontier || pr.Design != nil {
				return false
			}
			e = newEntry(p, limit, true, nil, 0, pr.Nodes, false)
		case "optimal":
			d, err := schedule.DecodeDesign(pr.Design, req.Graph, req.Pool, topo)
			if err != nil || d.Validate(&schedule.ValidateOptions{NoOverlapIO: req.NoOverlapIO}) != nil {
				return false
			}
			bound := float64(pr.Bound)
			if math.IsNaN(bound) || math.IsInf(bound, 0) {
				return false
			}
			e = newEntry(p, limit, false, d, bound, pr.Nodes, pr.Frontier)
			if e.designLimit > limit+limitEps {
				return false
			}
		default:
			return false
		}
		es = append(es, e)
	}
	for _, e := range es {
		c.insert(e, true)
	}
	return true
}
