package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"gtpin/internal/obs"
)

// span is one traced interval: a call the benchmark made into a layer,
// or a span the program itself emitted and the benchmark imported.
// Times are nanoseconds since the recorder started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// an untraced run: every method is a no-op, so workloads call the same
// code either way.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// openSpan is a span that has started but not ended.
type openSpan struct {
	r *recorder
	s span
}

// open starts a span under parent (0 for a root).
func (r *recorder) open(name, req string, parent int64) *openSpan {
	if r == nil {
		return nil
	}
	return &openSpan{r: r, s: span{ID: r.newID(), Parent: parent, Name: name, Req: req, Start: time.Since(r.t0).Nanoseconds()}}
}

// id returns the span's identifier, 0 for an untraced run.
func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// end records the span as ending now.
func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.s.End = time.Since(o.r.t0).Nanoseconds()
	o.r.add(o.s)
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// newID reserves an identifier for a span added later with add.
func (r *recorder) newID() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span name's total self time: a span's duration
// minus the part of it that its children cover. Children running in
// parallel are merged before subtracting, so overlapping children are
// not subtracted twice.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered returns how many nanoseconds of p's interval the union of
// kids covers.
func covered(p span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		if i == 0 || v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	return total + curB - curA
}

// coverage is the share of workers × wall that the named layers' self
// time explains. The rest is idle workers and time no layer claims.
func coverage(self map[string]time.Duration, layers []string, workers int, wall time.Duration) float64 {
	if workers <= 0 || wall <= 0 {
		return 0
	}
	var sum time.Duration
	for _, l := range layers {
		sum += self[l]
	}
	return float64(sum) / (float64(workers) * float64(wall))
}

// programTrace captures the spans the program emits through obs while
// it is installed as the process tracer.
type programTrace struct {
	tr    *obs.Tracer
	start time.Time
	prev  *obs.Tracer
}

func startProgramTrace() *programTrace {
	start := time.Now()
	tr := obs.NewTracer()
	return &programTrace{tr: tr, start: start, prev: obs.SetTracer(tr)}
}

// programSpan is one wall-clock span read back from the obs tracer.
type programSpan struct {
	Cat, Name  string
	Start, End time.Time
}

// stop uninstalls the tracer and returns its wall-clock spans.
func (p *programTrace) stop() ([]programSpan, error) {
	obs.SetTracer(p.prev)
	if d := p.tr.Dropped(); d > 0 {
		return nil, fmt.Errorf("program tracer dropped %d events; spans would be incomplete", d)
	}
	var buf bytes.Buffer
	if err := p.tr.WriteJSON(&buf); err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("decode program trace: %w", err)
	}
	var out []programSpan
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Pid != obs.DomainWall {
			continue
		}
		start := p.start.Add(time.Duration(math.Round(e.Ts * 1e3)))
		out = append(out, programSpan{Cat: e.Cat, Name: e.Name, Start: start, End: start.Add(time.Duration(math.Round(e.Dur * 1e3)))})
	}
	return out, nil
}

// spanFile is the on-disk form of a traced run's spans.
type spanFile struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	SelfNs   map[string]int64 `json:"self_ns"`
	Spans    []span           `json:"spans"`
}

func writeSpans(path, workload string, seed int64, spans []span) error {
	self := selfTimes(spans)
	sf := spanFile{Workload: workload, Seed: seed, SelfNs: make(map[string]int64, len(self)), Spans: spans}
	for k, v := range self {
		sf.SelfNs[k] = v.Nanoseconds()
	}
	data, err := json.Marshal(&sf)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
