package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"vlsicad"
	"vlsicad/internal/bench"
	"vlsicad/internal/mls"
	"vlsicad/internal/netlist"
	"vlsicad/internal/place"
	"vlsicad/internal/route"
	"vlsicad/internal/techmap"
)

// flow_large: one client runs a fixed, seed-derived set of designs
// through vlsicad.RunFlowOnNetwork with default options, one after
// another (a closed loop).

// flowSpec is the design size the ROADMAP measures.
var flowSpec = bench.NetworkSpec{Inputs: 50, Nodes: 200, Outputs: 25}

// designSeconds sizes the design set: a run of --seconds S flows
// round(S / designSeconds) designs, so the set, and with it every
// quality-of-results sum, depends only on the seed and S.
const designSeconds = 3.75

// overheadDesigns is how many designs a traced run also flows untraced
// to measure the tracing overhead.
const overheadDesigns = 3

// recoverBatch is how many empty-journal recoveries run before each
// design.
const recoverBatch = 100

type design struct {
	seed int64
	nw   *netlist.Network
}

// makeDesigns derives n designs from the run seed.
func makeDesigns(seed int64, n int, spec bench.NetworkSpec) []design {
	ds := make([]design, n)
	for i := range ds {
		s := deriveSeed(seed, "design", i)
		sp := spec
		sp.Name = fmt.Sprintf("d%d", i)
		ds[i] = design{seed: s, nw: bench.Network(sp, s)}
	}
	return ds
}

// qor is the quality of results summed over the design set.
type qor struct {
	wirelength, vias    int
	routed, requested   int
	literals            int
	area, criticalDelay float64
}

func (q *qor) add(f *vlsicad.Flow) {
	q.wirelength += f.WireLength
	q.vias += f.Vias
	q.requested += len(f.Nets)
	q.routed += len(f.Nets) - len(f.Routing.Failed)
	q.literals += f.LiteralsAfter
	q.area += f.Area
	q.criticalDelay += f.CriticalDelay
}

// flowPass is one pass over the design set.
type flowPass struct {
	flows   []*vlsicad.Flow // nil where the design failed
	latency []float64       // seconds per design
	failed  int
	q       qor
	w       *window
	// recoverMS holds the empty-journal recovery times, flow_large's
	// recover_ms samples.
	recoverMS []float64
	// peakMB holds each design's resident-set high-water mark, the
	// finished flows of the designs before it included.
	peakMB []float64
}

// runFlows runs every design through the flow; with a tracer, each
// run gets a "flow" root span whose trace id is the design index + 1.
func runFlows(ds []design, tr *tracer) *flowPass {
	p := &flowPass{flows: make([]*vlsicad.Flow, len(ds))}
	p.w = startWindow()
	for i, d := range ds {
		// Between designs, outside their timing and on a collected heap,
		// a batch of empty-journal recoveries: spread over the run, these
		// samples see the same machine as the flows do.
		runtime.GC()
		p.recoverMS = append(p.recoverMS, emptyRecoveries(recoverBatch)...)
		// Each design starts on a collected heap whose free pages went
		// back to the system, with the high-water mark lowered to that,
		// so its peak does not depend on where the collector happened to
		// be or on what an earlier design left resident.
		debug.FreeOSMemory()
		reset := resetPeakRSS()
		sp := tr.start("flow", uint64(i+1), nil)
		t0 := time.Now()
		f, err := vlsicad.RunFlowOnNetwork(d.nw, vlsicad.FlowOpts{Seed: d.seed})
		p.latency = append(p.latency, time.Since(t0).Seconds())
		sp.end()
		peak, perr := windowPeakRSSMB()
		if !reset || perr != nil {
			peak = peakRSSMB() // no per-design window: the process's peak so far
		}
		p.peakMB = append(p.peakMB, peak)
		if err != nil || f == nil || !f.Equivalent {
			p.failed++
			continue
		}
		p.flows[i] = f
		p.q.add(f)
	}
	p.w.stop()
	return p
}

func runFlowLarge(cfg runConfig) (*outcome, error) {
	n := max(1, int(cfg.seconds/designSeconds+0.5))
	return flowWorkload(cfg, n, flowSpec)
}

func flowWorkload(cfg runConfig, n int, spec bench.NetworkSpec) (*outcome, error) {
	ds, setup, err := timeSetup(setupReps, func() ([]design, error) {
		return makeDesigns(cfg.seed, n, spec), nil
	})
	if err != nil {
		return nil, err
	}
	plainSet := ds
	if cfg.trace {
		// The untraced pass of a traced run only anchors the overhead.
		plainSet = ds[:min(n, overheadDesigns)]
	}
	oc := &outcome{attempted: int64(n)}
	plain := runFlows(plainSet, nil)
	oc.failed = int64(plain.failed)
	if !cfg.trace {
		oc.metrics = flowEndToEnd(plain, setup)
		return oc, nil
	}

	// Traced pass over the whole set, with each stage replayed after
	// its flow. The tracing overhead compares the traced and untraced
	// times of the first overheadDesigns designs.
	tr := newTracer()
	traced := runFlows(ds, tr)
	oc.failed = int64(traced.failed)
	var first qor
	for _, f := range traced.flows[:len(plainSet)] {
		if f != nil {
			first.add(f)
		}
	}
	if first != plain.q {
		oc.invalidate("quality of results differs between two passes of one seed: %+v vs %+v", plain.q, first)
	}
	m := zeroLayers()
	rp := &flowReplay{}
	for i, f := range traced.flows {
		if f == nil {
			continue
		}
		if err := rp.replay(f, ds[i].seed, tr, uint64(i+1)); err != nil {
			oc.invalidate("design %d: %v", i, err)
		}
		for _, st := range f.Stages {
			key := "vlsicad." + st.Name + "_s"
			if _, listed := m[key]; listed {
				m[key] += st.Duration.Seconds() / float64(n)
			}
		}
	}
	rp.fill(m, n)
	m["vlsicad.cpu_util"] = traced.w.cpu.Seconds() / traced.w.wall.Seconds()
	runtimeLayers(m, traced.w, n)
	m["loadgen.sent"] = float64(n)
	tr.addSelfTimes(m)
	m["trace.overhead_pct"] = 100 * (mean(traced.latency[:len(plainSet)]) - mean(plain.latency)) / mean(plain.latency)
	oc.metrics = m
	return oc, tr.write(cfg.spanFile)
}

// flowEndToEnd reports the end-to-end metrics of an untraced pass. A
// design is flow_large's unit of work, so the job and capacity metrics
// read per design here.
func flowEndToEnd(p *flowPass, setup float64) map[string]float64 {
	n := len(p.latency)
	done := n - p.failed
	lat := append([]float64(nil), p.latency...)
	busy := mean(lat) * float64(n) // wall time in the flow calls
	m := map[string]float64{
		"setup_s":           setup,
		"error_ratio":       errorRatio(p.failed, n),
		"cpu_ms_per_op":     ms(p.w.cpu) / float64(max(done, 1)),
		"peak_rss_mb":       median(p.peakMB),
		"flow_s_per_design": busy / float64(n),
		"wirelength":        float64(p.q.wirelength),
		"vias":              float64(p.q.vias),
		"route_completion":  float64(p.q.routed) / float64(max(p.q.requested, 1)),
		"literals_after":    float64(p.q.literals),
		"area":              p.q.area,
		"critical_delay":    p.q.criticalDelay,
		"job_ms_p50":        1000 * median(lat),
		"job_ms_p99":        1000 * tailPercentile(lat, 0.99),
		"capacity_jps":      float64(done) / busy,
	}
	m["recover_ms"] = median(p.recoverMS)
	return m
}

// flowReplay re-runs each stage's public call on a Flow's artifacts,
// with a span around every call, and accumulates the per-layer
// counts. The replay must reproduce the flow exactly.
type flowReplay struct {
	extract, simplify, equiv, mapT, quad, legalize, routeT time.Duration

	literalsRemoved, gates, cgIters          int
	hpwl                                     float64
	expanded, waves, conflicts, spec, commit int
	failedNets                               int
}

func (r *flowReplay) replay(f *vlsicad.Flow, seed int64, tr *tracer, trace uint64) error {
	root := tr.start("replay", trace, nil)
	defer root.end()
	timed := func(name string, acc *time.Duration, call func()) {
		sp := tr.start(name, 0, root)
		t0 := time.Now()
		call()
		*acc += time.Since(t0)
		sp.end()
	}

	work := f.Source.Clone()
	timed("mls.extract", &r.extract, func() { mls.ExtractKernels(work, "fx_", 10) })
	timed("mls.simplify", &r.simplify, func() {
		mls.Simplify(work)
		mls.SweepConstants(work)
	})
	if got := work.Literals(); got != f.LiteralsAfter {
		return fmt.Errorf("replayed synthesis gives %d literals, flow %d", got, f.LiteralsAfter)
	}
	r.literalsRemoved += f.LiteralsBefore - f.LiteralsAfter

	var eq bool
	var err error
	timed("netlist.equiv", &r.equiv, func() { eq, err = netlist.EquivalentBDD(f.Source, work) })
	if err != nil || !eq {
		return fmt.Errorf("replayed equivalence check: %v %v", eq, err)
	}

	var mapping *techmap.Result
	timed("techmap.map", &r.mapT, func() {
		var subj *techmap.Subject
		if subj, err = techmap.FromNetwork(work); err == nil {
			mapping, err = techmap.Map(subj, techmap.StandardLibrary(), vlsicad.FlowOpts{}.MapObjective)
		}
	})
	if err != nil {
		return fmt.Errorf("replayed mapping: %w", err)
	}
	if mapping.Area != f.Area || len(mapping.Matches) != len(f.Mapping.Matches) {
		return fmt.Errorf("replayed mapping has area %v, flow %v", mapping.Area, f.Area)
	}
	r.gates += len(mapping.Matches)

	var global, legal *place.Placement
	timed("place.quadratic", &r.quad, func() {
		global, err = place.Quadratic(f.PlaceProblem, place.QuadraticOpts{
			OnLevel: func(ls place.QuadLevelStats) { r.cgIters += ls.CGIterations },
		})
	})
	if err != nil {
		return fmt.Errorf("replayed quadratic placement: %w", err)
	}
	timed("place.legalize", &r.legalize, func() { legal, err = place.Legalize(f.PlaceProblem, global) })
	if err != nil {
		return fmt.Errorf("replayed legalization: %w", err)
	}
	hpwl := f.PlaceProblem.HPWL(legal)
	if hpwl != f.HPWL {
		return fmt.Errorf("replayed placement has HPWL %v, flow %v", hpwl, f.HPWL)
	}
	r.hpwl += hpwl

	// The flow's routing options (flow.go, stage 4), on a fresh grid.
	var res *route.Result
	grid := route.NewGrid(f.Grid.W, f.Grid.H, f.Grid.Cost)
	timed("route.route_all", &r.routeT, func() {
		res = route.RouteAll(grid, f.Nets, route.Opts{
			Alg: route.AStar, Order: route.OrderShortFirst, RipupRounds: 5,
			Seed: seed, Workers: runtime.GOMAXPROCS(0),
			OnWave: func(ws route.WaveStats) {
				r.waves++
				r.conflicts += ws.Conflicts
				r.spec += ws.Nets
				r.commit += ws.Committed
			},
		})
	})
	if res.Length != f.WireLength || res.Vias != f.Vias || res.Expanded != f.Routing.Expanded {
		return fmt.Errorf("replayed routing gives wirelength %d, vias %d, %d expansions; flow %d, %d, %d",
			res.Length, res.Vias, res.Expanded, f.WireLength, f.Vias, f.Routing.Expanded)
	}
	r.expanded += res.Expanded
	r.failedNets += len(res.Failed)
	return nil
}

// fill writes the replay's per-layer metrics for n designs.
func (r *flowReplay) fill(m map[string]float64, n int) {
	per := func(d time.Duration) float64 { return d.Seconds() / float64(n) }
	m["mls.extract_s"] = per(r.extract)
	m["mls.simplify_s"] = per(r.simplify)
	m["mls.literals_removed"] = float64(r.literalsRemoved)
	m["netlist.equiv_s"] = per(r.equiv)
	m["techmap.map_s"] = per(r.mapT)
	m["techmap.gates"] = float64(r.gates)
	m["place.quadratic_s"] = per(r.quad)
	m["place.cg_iterations"] = float64(r.cgIters)
	m["place.legalize_s"] = per(r.legalize)
	m["place.hpwl"] = r.hpwl
	m["route.route_all_s"] = per(r.routeT)
	m["route.cells_expanded"] = float64(r.expanded)
	if r.expanded > 0 {
		m["route.ns_per_expansion"] = float64(r.routeT.Nanoseconds()) / float64(r.expanded)
	}
	m["route.waves"] = float64(r.waves)
	m["route.wave_conflicts"] = float64(r.conflicts)
	m["route.speculative_searches"] = float64(r.spec)
	m["route.failed_nets"] = float64(r.failedNets)
	if r.spec > 0 {
		m["route.useful_search_ratio"] = float64(r.commit) / float64(r.spec)
	}
}

// errorRatio is failed ÷ attempted with one failure and one attempt
// added, so that it is never 0 (a metric reading 0 has no relative
// spread). With no failure it reads 1/(attempted+1).
func errorRatio(failed, attempted int) float64 {
	return float64(failed+1) / float64(attempted+1)
}
