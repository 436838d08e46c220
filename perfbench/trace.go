package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one request share Req; Parent is the ID of the span
// that made the call (0 for a request's root span).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the part of a span name before the first dot: "wire.encode"
// belongs to the wire layer.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing switched off: begin returns 0 and end does nothing, so the
// untraced end-to-end runs execute the same code minus the recording.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(parent int32, req, name string) int32 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfTimes returns, for every request whose root span is named root,
// the self time of each layer summed over the request's spans. A span's
// self time is its duration minus the durations of its children; the
// benchmark's spans within one request never overlap one another, so
// the children of a span cover disjoint parts of it.
func (t *tracer) selfTimes(root string) []map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans)+1)
	// A parent always begins, and so is numbered, before its children.
	top := make([]int32, len(t.spans)+1)
	for _, s := range t.spans {
		top[s.ID] = s.ID
		if s.Parent > 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
			top[s.ID] = top[s.Parent]
		}
	}
	byRoot := map[int32]map[string]time.Duration{}
	var order []int32
	for _, s := range t.spans {
		r := top[s.ID]
		if t.spans[r-1].Name != root {
			continue
		}
		m := byRoot[r]
		if m == nil {
			m = map[string]time.Duration{}
			byRoot[r] = m
			order = append(order, r)
		}
		m[s.layer()] += time.Duration(s.End-s.Start) - child[s.ID]
	}
	out := make([]map[string]time.Duration, 0, len(order))
	for _, r := range order {
		out = append(out, byRoot[r])
	}
	return out
}

// medianSelfMS reduces per-request self times to the median per layer,
// in milliseconds.
func medianSelfMS(reqs []map[string]time.Duration) map[string]float64 {
	per := map[string][]float64{}
	for _, m := range reqs {
		for l, d := range m {
			per[l] = append(per[l], ms(d))
		}
	}
	out := map[string]float64{}
	for l, xs := range per {
		// A request without a span of this layer spent no time in it.
		for len(xs) < len(reqs) {
			xs = append(xs, 0)
		}
		out[l] = median(xs)
	}
	return out
}

// sortedLayers returns the map's keys in order.
func sortedLayers(m map[string]float64) []string {
	ls := make([]string, 0, len(m))
	for l := range m {
		ls = append(ls, l)
	}
	sort.Strings(ls)
	return ls
}

// write stores every span as one gzip-compressed JSON line.
func (t *tracer) write(path string) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return 0, err
		}
	}
	if err := bw.Flush(); err != nil {
		return 0, fmt.Errorf("writing spans: %w", err)
	}
	if err := zw.Close(); err != nil {
		return 0, fmt.Errorf("writing spans: %w", err)
	}
	return len(t.spans), f.Close()
}
