package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// spanRec is one finished span of the traced pass. Spans are recorded
// by the benchmark around its calls into each layer; the program under
// test records none of them.
type spanRec struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"` // 0 for a root span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the run writes them out. A
// nil *tracer records nothing, which is the untraced pass.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  uint64
	spans []spanRec
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span is an open span; end closes it.
type span struct {
	tr  *tracer
	rec spanRec
}

// start opens a span; parent is nil for a root, which starts trace id.
func (t *tracer) start(name string, trace uint64, parent *span) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	s := &span{tr: t, rec: spanRec{Name: name, Trace: trace, ID: id, Start: int64(time.Since(t.t0))}}
	if parent != nil {
		s.rec.Parent = parent.rec.ID
		s.rec.Trace = parent.rec.Trace
	}
	return s
}

func (s *span) end() {
	if s == nil {
		return
	}
	s.rec.End = int64(time.Since(s.tr.t0))
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, s.rec)
	s.tr.mu.Unlock()
}

// layerOf maps a span name to its layer: the text before the first
// dot ("route.route_all" is in route). The benchmark's own spans
// ("replay") are the bench layer, and "flow", which wraps
// vlsicad.RunFlowOnNetwork, is the vlsicad layer.
func layerOf(name string) string {
	switch name {
	case "flow":
		return "vlsicad"
	case "replay":
		return "bench"
	}
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes returns each layer's self time in seconds: every span's
// duration minus the part of it that its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	kids := map[uint64][]spanRec{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		covered := int64(0)
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		cur := s.Start
		for _, c := range ch {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[layerOf(s.Name)] += float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// addSelfTimes records the self_s.<layer> metrics; layers without
// spans read 0.
func (t *tracer) addSelfTimes(m map[string]float64) {
	for layer, v := range t.selfTimes() {
		key := "self_s." + layer
		if _, ok := m[key]; ok {
			m[key] = v
		}
	}
	m["trace.spans"] = float64(len(t.spans))
}

// write stores the spans as JSON lines in path.
func (t *tracer) write(path string) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
