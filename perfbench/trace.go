package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer keeps the spans of a traced run in memory; they are written out once
// the run ends. Spans are recorded by the benchmark's own code around calls
// into each layer's public functions — the program itself is not
// instrumented. A nil *tracer records nothing, which is how untraced runs
// (and untraced phases of a traced run) skip every span at the cost of one
// nil check.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []spanRecord
	ops   int64
	// countAllocs makes span.mallocs read the allocation counter. Reading it
	// exactly stops the world, so a traced run counts allocations in a
	// separate short pass whose timings are not used.
	countAllocs bool
}

// spanRecord is one finished (or open) span. Times are nanoseconds since the
// tracer started. Parent is -1 for an op's root span; every span of one op
// shares its Op id.
type spanRecord struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs int64  `json:"allocs,omitempty"`
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

type spanKey struct{}

// spanRef is what a context carries: the enclosing span and its op.
type spanRef struct {
	id int
	op int64
}

// span is a handle on an open span; the zero value (from a nil tracer) is a
// no-op.
type span struct {
	t  *tracer
	id int
}

func (t *tracer) open(ctx context.Context, name string, parent int, op int64) (context.Context, span) {
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, spanRecord{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	t.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, spanRef{id: id, op: op}), span{t: t, id: id}
}

// op opens the root span of a new op.
func (t *tracer) op(ctx context.Context) (context.Context, span) {
	if t == nil {
		return ctx, span{}
	}
	t.mu.Lock()
	t.ops++
	op := t.ops
	t.mu.Unlock()
	return t.open(ctx, "op", -1, op)
}

// start opens a span under the one ctx carries. Without an enclosing span
// (a call outside any op, such as set-up) nothing is recorded.
func (t *tracer) start(ctx context.Context, name string) (context.Context, span) {
	if t == nil {
		return ctx, span{}
	}
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	if !ok {
		return ctx, span{}
	}
	return t.open(ctx, name, ref.id, ref.op)
}

func (s span) end() { s.finish("", 0) }

// finish closes the span, renaming it when name is set (a span whose kind is
// known only after the call, such as a handled request's verdict) and
// recording an allocation count when allocs is non-zero.
func (s span) finish(name string, allocs int64) {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.base).Nanoseconds()
	s.t.mu.Lock()
	r := &s.t.spans[s.id]
	r.End = now
	if name != "" {
		r.Name = name
	}
	r.Allocs = allocs
	s.t.mu.Unlock()
}

// mallocs returns the process's cumulative allocation count when the tracer
// counts allocations, and 0 otherwise.
func (s span) mallocs() int64 {
	if s.t == nil || !s.t.countAllocs {
		return 0
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.Mallocs)
}

// spanStats aggregates a trace: per span name its call count, total
// duration, total allocations and self time.
type spanStats struct {
	calls  map[string]int
	total  map[string]time.Duration
	allocs map[string]int64
	// self splits every op's wall time among span names: each instant goes
	// to the innermost spans open at that instant, shared equally when
	// several run in parallel (a ring's fan-out), so the names sum to the
	// ops' time. A span whose children run one after another keeps its
	// duration minus theirs.
	self map[string]time.Duration
}

// layerOf maps a span name to the layer its time belongs to. Spans named
// after a courier or rack call ("rpc") cover the wire, TLS and the server;
// the caller splits that into transport and broker time with the server's
// own per-opcode histograms.
func layerOf(name string) string {
	switch {
	case name == "op":
		return "unattributed"
	case strings.HasPrefix(name, "attr."):
		return "attr"
	case strings.HasPrefix(name, "core."):
		return "core"
	case strings.HasPrefix(name, "broker."):
		return "broker"
	case strings.HasPrefix(name, "client.ring_"):
		return "client"
	default:
		return "rpc"
	}
}

func (t *tracer) stats() spanStats {
	st := spanStats{
		calls:  map[string]int{},
		total:  map[string]time.Duration{},
		allocs: map[string]int64{},
		self:   map[string]time.Duration{},
	}
	if t == nil {
		return st
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ops := make(map[int64][]int)
	for _, s := range t.spans {
		if s.End < s.Start {
			continue // still open when the phase ended
		}
		d := time.Duration(s.End - s.Start)
		st.calls[s.Name]++
		st.total[s.Name] += d
		st.allocs[s.Name] += s.Allocs
		ops[s.Op] = append(ops[s.Op], s.ID)
	}
	for _, ids := range ops {
		selfTime(t.spans, ids, st.self)
	}
	return st
}

// layers sums the self times by layer.
func (st spanStats) layers() map[string]time.Duration {
	out := map[string]time.Duration{}
	for name, d := range st.self {
		out[layerOf(name)] += d
	}
	return out
}

// selfTime adds one op's wall time to self, by span name. It sweeps the
// op's span boundaries in time order; between two boundaries the open spans
// with no open child share the interval equally.
func selfTime(spans []spanRecord, ids []int, self map[string]time.Duration) {
	type event struct {
		at   int64
		id   int
		open bool
	}
	evs := make([]event, 0, 2*len(ids))
	for _, id := range ids {
		evs = append(evs, event{spans[id].Start, id, true}, event{spans[id].End, id, false})
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	open := map[int]bool{}
	openKids := map[int]int{}
	for i, e := range evs {
		if i > 0 && e.at > evs[i-1].at && len(open) > 0 {
			var leaves []int
			for id := range open {
				if openKids[id] == 0 {
					leaves = append(leaves, id)
				}
			}
			share := time.Duration(e.at-evs[i-1].at) / time.Duration(len(leaves))
			for _, id := range leaves {
				self[spans[id].Name] += share
			}
		}
		p := spans[e.id].Parent
		if e.open {
			open[e.id] = true
			if p >= 0 {
				openKids[p]++
			}
		} else {
			delete(open, e.id)
			if p >= 0 {
				openKids[p]--
			}
		}
	}
}

// mean returns the mean duration of the named spans, in microseconds.
func (st spanStats) meanUs(name string) float64 {
	if st.calls[name] == 0 {
		return 0
	}
	return float64(st.total[name].Nanoseconds()) / 1e3 / float64(st.calls[name])
}

// meanAllocs returns the mean allocation count of the named spans.
func (st spanStats) meanAllocs(name string) float64 {
	if st.calls[name] == 0 {
		return 0
	}
	return float64(st.allocs[name]) / float64(st.calls[name])
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
