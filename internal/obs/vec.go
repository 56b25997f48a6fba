package obs

import (
	"sort"
	"strings"
	"sync"
)

// Labeled metric families. A *Vec is a family of series sharing one
// name and one label-key set; With(values...) resolves (creating on
// first use) the child metric for one label-value combination. Every
// per-tool, per-shard, per-stage or per-unit series is a family child;
// no metric name carries a dimension.
//
// Hot-path contract: With on an existing child is lock-free sync.Map
// reads (no allocation for one-, two-, and three-label families —
// locked in by TestWithAllocFree), and the
// returned child is a plain *Counter/*Gauge/*Histogram — callers on
// genuinely hot paths (the pool worker loop) resolve children once at
// registration time and keep the handle, paying exactly the flat
// metric's atomic cost per event.
//
// Determinism contract: snapshots list every family's series sorted
// by their label rendering, and label keys inside each series render
// sorted by key, so two registries fed the same operations export
// byte-identical text regardless of creation interleaving.

// labelSep joins label values into a child key. 0x1f (ASCII unit
// separator) cannot appear in reasonable label values; even if it
// does, the worst case is two combinations sharing a child series.
const labelSep = "\x1f"

// childKey encodes a positional value list. Single-label families —
// the common case — use the value itself, allocation-free.
func childKey(values []string) string {
	if len(values) == 1 {
		return values[0]
	}
	return strings.Join(values, labelSep)
}

// vecCore is the shared name/keys/children plumbing of the three
// vector kinds.
type vecCore struct {
	name string
	keys []string // in caller (With-positional) order
	m    sync.Map // childKey -> child metric (snapshot source of truth)
	// idx2 is a read-side index for two-label families: first value ->
	// *sync.Map(second value -> child). The flat m stays authoritative
	// (snapshots and sortedChildKeys read only it); idx2 exists so a
	// two-label With hit needs no strings.Join — it is repaired from m
	// on every miss, so it can never disagree with it.
	idx2 sync.Map
	// idx3 extends the same scheme one level for three-label families
	// (first value -> second value -> third value -> child) — the
	// recovery counters' {kind}/{disposition} series ride this path.
	idx3 sync.Map
}

// load2 resolves a two-value combination through the nested index —
// the allocation-free hit path.
func (v *vecCore) load2(v1, v2 string) (any, bool) {
	inner, ok := v.idx2.Load(v1)
	if !ok {
		return nil, false
	}
	return inner.(*sync.Map).Load(v2)
}

// store2 indexes the canonical child (the one the flat map's
// LoadOrStore settled on) under its two values.
func (v *vecCore) store2(v1, v2 string, child any) {
	inner, ok := v.idx2.Load(v1)
	if !ok {
		inner, _ = v.idx2.LoadOrStore(v1, &sync.Map{})
	}
	inner.(*sync.Map).LoadOrStore(v2, child)
}

// load3 resolves a three-value combination through the nested index.
func (v *vecCore) load3(v1, v2, v3 string) (any, bool) {
	mid, ok := v.idx3.Load(v1)
	if !ok {
		return nil, false
	}
	inner, ok := mid.(*sync.Map).Load(v2)
	if !ok {
		return nil, false
	}
	return inner.(*sync.Map).Load(v3)
}

// store3 indexes the canonical child under its three values.
func (v *vecCore) store3(v1, v2, v3 string, child any) {
	mid, ok := v.idx3.Load(v1)
	if !ok {
		mid, _ = v.idx3.LoadOrStore(v1, &sync.Map{})
	}
	inner, ok := mid.(*sync.Map).Load(v2)
	if !ok {
		inner, _ = mid.(*sync.Map).LoadOrStore(v2, &sync.Map{})
	}
	inner.(*sync.Map).LoadOrStore(v3, child)
}

// checkArity panics when With is called with the wrong number of
// label values — a programming error, caught loudly like a wrong
// printf verb rather than silently mis-filed telemetry.
func (v *vecCore) checkArity(values []string) {
	if len(values) != len(v.keys) {
		panic("obs: " + v.name + ": wrong label cardinality")
	}
}

// labels reconstructs the key->value map of one encoded child.
func (v *vecCore) labels(key string) map[string]string {
	var values []string
	if len(v.keys) == 1 {
		values = []string{key}
	} else {
		values = strings.Split(key, labelSep)
	}
	m := make(map[string]string, len(v.keys))
	for i, k := range v.keys {
		if i < len(values) {
			m[k] = values[i]
		}
	}
	return m
}

// sortedChildKeys returns the encoded child keys in deterministic
// (sorted) order.
func (v *vecCore) sortedChildKeys() []string {
	var keys []string
	v.m.Range(func(k, _ any) bool {
		keys = append(keys, k.(string))
		return true
	})
	sort.Strings(keys)
	return keys
}

// CounterVec is a labeled counter family.
type CounterVec struct{ vecCore }

// With returns the child counter for the given label values (one per
// registered key, in order), creating it on first use. Safe on nil
// (returns a nil no-op counter); panics on wrong arity.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	v.checkArity(values)
	if len(values) == 2 {
		if c, ok := v.load2(values[0], values[1]); ok {
			return c.(*Counter)
		}
		c, _ := v.m.LoadOrStore(childKey(values), &Counter{})
		v.store2(values[0], values[1], c)
		return c.(*Counter)
	}
	if len(values) == 3 {
		if c, ok := v.load3(values[0], values[1], values[2]); ok {
			return c.(*Counter)
		}
		c, _ := v.m.LoadOrStore(childKey(values), &Counter{})
		v.store3(values[0], values[1], values[2], c)
		return c.(*Counter)
	}
	k := childKey(values)
	if c, ok := v.m.Load(k); ok {
		return c.(*Counter)
	}
	c, _ := v.m.LoadOrStore(k, &Counter{})
	return c.(*Counter)
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ vecCore }

// With returns the child gauge for the given label values. Safe on
// nil; panics on wrong arity.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	v.checkArity(values)
	if len(values) == 2 {
		if g, ok := v.load2(values[0], values[1]); ok {
			return g.(*Gauge)
		}
		g, _ := v.m.LoadOrStore(childKey(values), &Gauge{})
		v.store2(values[0], values[1], g)
		return g.(*Gauge)
	}
	if len(values) == 3 {
		if g, ok := v.load3(values[0], values[1], values[2]); ok {
			return g.(*Gauge)
		}
		g, _ := v.m.LoadOrStore(childKey(values), &Gauge{})
		v.store3(values[0], values[1], values[2], g)
		return g.(*Gauge)
	}
	k := childKey(values)
	if g, ok := v.m.Load(k); ok {
		return g.(*Gauge)
	}
	g, _ := v.m.LoadOrStore(k, &Gauge{})
	return g.(*Gauge)
}

// HistogramVec is a labeled histogram family; every child shares the
// family's bucket bounds.
type HistogramVec struct {
	vecCore
	bounds []float64
}

// With returns the child histogram for the given label values. Safe
// on nil; panics on wrong arity.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	v.checkArity(values)
	if len(values) == 2 {
		if h, ok := v.load2(values[0], values[1]); ok {
			return h.(*Histogram)
		}
		h, _ := v.m.LoadOrStore(childKey(values), newHistogram(v.bounds))
		v.store2(values[0], values[1], h)
		return h.(*Histogram)
	}
	if len(values) == 3 {
		if h, ok := v.load3(values[0], values[1], values[2]); ok {
			return h.(*Histogram)
		}
		h, _ := v.m.LoadOrStore(childKey(values), newHistogram(v.bounds))
		v.store3(values[0], values[1], values[2], h)
		return h.(*Histogram)
	}
	k := childKey(values)
	if h, ok := v.m.Load(k); ok {
		return h.(*Histogram)
	}
	h, _ := v.m.LoadOrStore(k, newHistogram(v.bounds))
	return h.(*Histogram)
}

// sameStrings reports element-wise equality.
func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sameBounds reports element-wise equality of bucket bounds.
func sameBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CounterVec returns the named counter family with the given label
// keys, creating it on first use. Re-registering an existing family
// with different keys panics — the two call sites would silently
// shear one family into incompatible series otherwise.
func (r *Registry) CounterVec(name string, keys ...string) *CounterVec {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	v := r.counterVecs[name]
	r.mu.RUnlock()
	if v == nil {
		r.mu.Lock()
		if v = r.counterVecs[name]; v == nil {
			v = &CounterVec{vecCore{name: name, keys: append([]string(nil), keys...)}}
			r.counterVecs[name] = v
		}
		r.mu.Unlock()
	}
	if !sameStrings(v.keys, keys) {
		panic("obs: counter vec " + name + " re-registered with different label keys")
	}
	return v
}

// GaugeVec returns the named gauge family, creating it on first use.
// Re-registering with different keys panics.
func (r *Registry) GaugeVec(name string, keys ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	v := r.gaugeVecs[name]
	r.mu.RUnlock()
	if v == nil {
		r.mu.Lock()
		if v = r.gaugeVecs[name]; v == nil {
			v = &GaugeVec{vecCore{name: name, keys: append([]string(nil), keys...)}}
			r.gaugeVecs[name] = v
		}
		r.mu.Unlock()
	}
	if !sameStrings(v.keys, keys) {
		panic("obs: gauge vec " + name + " re-registered with different label keys")
	}
	return v
}

// HistogramVec returns the named histogram family with the given
// label keys and bucket bounds (DefaultLatencyBuckets when nil),
// creating it on first use. Re-registering with different keys or
// bounds panics.
func (r *Registry) HistogramVec(name string, keys []string, bounds ...float64) *HistogramVec {
	if r == nil {
		return nil
	}
	want := bounds
	if len(want) == 0 {
		want = DefaultLatencyBuckets()
	}
	want = append([]float64(nil), want...)
	sort.Float64s(want)
	r.mu.RLock()
	v := r.histVecs[name]
	r.mu.RUnlock()
	if v == nil {
		r.mu.Lock()
		if v = r.histVecs[name]; v == nil {
			v = &HistogramVec{
				vecCore: vecCore{name: name, keys: append([]string(nil), keys...)},
				bounds:  want,
			}
			r.histVecs[name] = v
		}
		r.mu.Unlock()
	}
	if !sameStrings(v.keys, keys) {
		panic("obs: histogram vec " + name + " re-registered with different label keys")
	}
	if len(bounds) > 0 && !sameBounds(v.bounds, want) {
		panic("obs: histogram vec " + name + " re-registered with different bucket bounds")
	}
	return v
}

// LabeledCounter is one series of a counter family in a snapshot.
type LabeledCounter struct {
	Labels map[string]string `json:"labels"`
	Value  int64             `json:"value"`
}

// LabeledGauge is one series of a gauge family in a snapshot.
type LabeledGauge struct {
	Labels map[string]string `json:"labels"`
	Value  float64           `json:"value"`
}

// LabeledHistogram is one series of a histogram family in a snapshot.
type LabeledHistogram struct {
	Labels map[string]string `json:"labels"`
	Hist   HistogramSnapshot `json:"hist"`
}

// CounterSeries looks one series of a counter family out of the
// snapshot by its labels (0, false when absent).
func (s RegistrySnapshot) CounterSeries(name string, labels map[string]string) (int64, bool) {
	want := LabelString(labels)
	for _, sr := range s.CounterVecs[name] {
		if LabelString(sr.Labels) == want {
			return sr.Value, true
		}
	}
	return 0, false
}

// GaugeSeries looks one series of a gauge family out of the snapshot
// by its labels (0, false when absent).
func (s RegistrySnapshot) GaugeSeries(name string, labels map[string]string) (float64, bool) {
	want := LabelString(labels)
	for _, sr := range s.GaugeVecs[name] {
		if LabelString(sr.Labels) == want {
			return sr.Value, true
		}
	}
	return 0, false
}

// HistogramSeries looks one series of a histogram family out of the
// snapshot by its labels (zero snapshot, false when absent).
func (s RegistrySnapshot) HistogramSeries(name string, labels map[string]string) (HistogramSnapshot, bool) {
	want := LabelString(labels)
	for _, sr := range s.HistogramVecs[name] {
		if LabelString(sr.Labels) == want {
			return sr.Hist, true
		}
	}
	return HistogramSnapshot{}, false
}

// LabelString renders a label map as `k1=v1,k2=v2` with keys sorted —
// the deterministic series identity used for ordering and text dumps.
func LabelString(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
	}
	return b.String()
}
