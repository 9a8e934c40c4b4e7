package main

import (
	"encoding/json"
	"io"
	"strings"
	"time"
)

// span is one host-time interval around a call into a layer, recorded at
// rank 0 from the benchmark's own code. Iter is the application iteration
// it belongs to, -1 outside the iteration loop; Parent is 0 for roots.
type span struct {
	ID     int
	Parent int
	Name   string
	Iter   int
	Batch  int
	Start  time.Duration // since the tracer's origin
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// layer is the part of a span name before the first dot ("mpi.split" is
// in layer mpi).
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps the spans of one rank in memory until the run ends. It is
// used from a single goroutine (rank 0's), so it needs no locking; a nil
// tracer records nothing, which is the untraced run.
type tracer struct {
	origin time.Time
	batch  int
	spans  []span
	open   []int // indexes into spans of the spans not yet ended
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// do runs fn inside a span named name.
func (t *tracer) do(name string, iter int, fn func() error) error {
	if t == nil {
		return fn()
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{ID: idx + 1, Parent: parent, Name: name, Iter: iter,
		Batch: t.batch, Start: time.Since(t.origin)})
	t.open = append(t.open, idx)
	err := fn()
	t.spans[idx].End = time.Since(t.origin)
	t.open = t.open[:len(t.open)-1]
	return err
}

// spanStats sums spans by name: total duration and call count.
type spanStats struct {
	Total time.Duration
	Calls int
}

func byName(spans []span) map[string]spanStats {
	out := map[string]spanStats{}
	for _, s := range spans {
		st := out[s.Name]
		st.Total += s.dur()
		st.Calls++
		out[s.Name] = st
	}
	return out
}

// selfTimes returns each layer's self time: the duration of its spans
// minus the part their child spans cover. Spans of one tracer nest
// strictly (one goroutine), so a child's interval lies inside its parent's.
func selfTimes(spans []span) map[string]time.Duration {
	child := map[int]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.layer()] += s.dur() - child[s.ID]
	}
	return out
}

// writeTrace writes the spans as Chrome trace events in host
// microseconds, one process per batch (each batch's clock starts at 0),
// with id, parent, iteration and batch in args.
func writeTrace(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, 0, len(spans))
	for _, s := range spans {
		evs = append(evs, event{Name: s.Name, Cat: s.layer(), Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3, Pid: s.Batch,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "iter": s.Iter, "batch": s.Batch}})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}
