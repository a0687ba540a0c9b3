package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public entry point. Spans of one operation share Req; Parent is
// the ID of the span that caused this one (0 for a root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Req    int     `json:"req"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the run's epoch
	End    float64 `json:"end_ms"`
}

func (s span) ms() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs stay free of tracing work.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) float64 {
	return float64(at.Sub(t.epoch).Nanoseconds()) / 1e6
}

// begin opens a span now and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	return t.beginAt(name, parent, req, time.Now())
}

// beginAt opens a span that started at a given instant, such as the time an
// open-loop request was due.
func (t *tracer) beginAt(name string, parent, req int, at time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: t.since(at), End: -1})
	return id
}

// end closes span id now.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.since(now)
}

// closed returns a copy of the finished spans.
func (t *tracer) closed() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// writeFile writes the spans as JSON to path.
func (t *tracer) writeFile(path string) error {
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.closed()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its children cover. Overlapping children count once, and a
// child's time outside its parent's interval is not subtracted.
func selfTimes(spans []span) map[int]float64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.ms() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(parent span, children []span) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB float64
	open := false
	for _, x := range ivs {
		switch {
		case !open:
			curA, curB, open = x.a, x.b, true
		case x.a <= curB:
			curB = max(curB, x.b)
		default:
			total += curB - curA
			curA, curB = x.a, x.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerTime sums, per span name, the count, total time and self time.
type layerTime struct {
	Name    string
	Count   int
	TotalMS float64
	SelfMS  float64
}

func summarize(spans []span) []layerTime {
	self := selfTimes(spans)
	by := make(map[string]*layerTime)
	for _, s := range spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			by[s.Name] = lt
		}
		lt.Count++
		lt.TotalMS += s.ms()
		lt.SelfMS += self[s.ID]
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// durations lists the durations of the spans named name.
func durations(spans []span, name string) []float64 {
	var xs []float64
	for _, s := range spans {
		if s.Name == name {
			xs = append(xs, s.ms())
		}
	}
	return xs
}
