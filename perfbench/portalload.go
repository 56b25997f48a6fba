package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"vlsicad/internal/obs"
	"vlsicad/internal/portal"
)

// portal_steady and portal_saturate: student jobs for the five course
// tools go to one portal.Pool configuration (Workers = nproc, default
// Timeout, a journal on an in-memory syncer, bounded history).

const (
	corpusPerTool = 256  // distinct inputs per tool
	users         = 300  // student ids
	queueDepth    = 1024 // admits every burst of the steady rate: nothing is shed
	historyLimit  = 4    // per-user history; unbounded history makes snapshots O(n²)
	compactEvery  = 2048 // journal records between snapshots
	// recoverRecords is the journal prefix replayed to time recovery. A
	// fixed record count keeps recover_ms independent of how many jobs
	// the run completed.
	recoverRecords = 3000
	recoverReps    = 40
	recoverGap     = 200 * time.Millisecond

	// steadyRate is about 40% of a 2-core machine once the runaways are
	// counted: an abandoned PHP(8) burns about as much CPU as the 1000
	// normal jobs around it, so 200 jobs/s would load the machine to
	// about 85% and tip into overload whenever it runs slow.
	steadyRate   = 100.0 // jobs/s
	runawayEvery = 1000  // one steady submission in this many is the runaway
	// The runaways sit at runawayPhase + [0, runawayJitter) within each
	// block of runawayEvery submissions, so the last one of a run
	// finishes inside the run rather than past its end.
	runawayPhase  = 200
	runawayJitter = 200
	// maxLagMS marks a steady run invalid: past it the generator, not
	// the portal, would set the latency tail.
	maxLagMS = 100.0
)

// memJournal is the journal's WriteSyncer: it counts bytes and syncs
// and keeps the first recoverRecords records in memory, so journal
// framing is measured without disk noise. The pool writes each record
// with one Write followed by one Sync.
type memJournal struct {
	mu    sync.Mutex
	buf   []byte
	bytes int64
	syncs int64
}

func (j *memJournal) Write(p []byte) (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.bytes += int64(len(p))
	if j.syncs < recoverRecords {
		j.buf = append(j.buf, p...)
	}
	return len(p), nil
}

func (j *memJournal) Sync() error {
	j.mu.Lock()
	j.syncs++
	j.mu.Unlock()
	return nil
}

func (j *memJournal) stats() (prefix []byte, bytes, syncs int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.buf, j.bytes, j.syncs
}

func poolConfig(jr *portal.Journal, ob *obs.Observer) portal.PoolConfig {
	return portal.PoolConfig{
		Workers:      runtime.NumCPU(),
		QueueDepth:   queueDepth,
		HistoryLimit: historyLimit,
		Journal:      jr,
		Observer:     ob,
	}
}

// rig is one pool under test with its journal and observer.
type rig struct {
	pool *portal.Pool
	jr   *memJournal
	ob   *obs.Observer
}

func newRig() (*rig, error) {
	r := &rig{jr: &memJournal{}, ob: obs.NewObserver(nil)}
	r.pool = portal.NewPool(poolConfig(portal.NewJournal(r.jr, portal.JournalOpts{CompactEvery: compactEvery}), r.ob))
	if err := portal.CourseTools(r.pool); err != nil {
		r.pool.Close()
		return nil, err
	}
	return r, nil
}

// quiesce waits until no abandoned runaway is still burning CPU.
func (r *rig) quiesce() error {
	g := r.ob.Gauge("portal_abandoned_inflight")
	for end := time.Now().Add(60 * time.Second); g.Value() > 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(end) {
			return fmt.Errorf("abandoned tool runs still active after 60 s")
		}
	}
	return nil
}

// portalSetup builds the input corpus and a fresh pool.
func portalSetup(seed int64) (*corpus, *rig, float64, error) {
	var times []float64
	var c *corpus
	var r *rig
	for i := 0; i < setupReps; i++ {
		if r != nil {
			r.pool.Close()
		}
		time.Sleep(setupGap)
		t0 := time.Now()
		var err error
		if c, err = makeCorpus(seed, corpusPerTool); err != nil {
			return nil, nil, 0, err
		}
		if r, err = newRig(); err != nil {
			return nil, nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return c, r, median(times), nil
}

// job is one submission and what became of it.
type job struct {
	in       *toolInput
	user     string
	due      time.Time // when it was due to be sent
	submit   time.Duration
	submitAt time.Time
	done     time.Time
	res      portal.JobResult
	err      error // shed at admission, or the ticket's terminal error
}

func (j *job) latencyMS() float64 { return ms(j.done.Sub(j.due)) }

// outputs interns tool outputs: a tool is deterministic, so a run holds
// one copy per input instead of one per job, and the process's memory
// stays the pool's rather than the benchmark's.
type outputs struct {
	mu   sync.Mutex
	seen map[outputKey]string
}

type outputKey struct {
	input int
	out   string
}

func (o *outputs) intern(input int, out string) string {
	o.mu.Lock()
	defer o.mu.Unlock()
	k := outputKey{input, out}
	if s, ok := o.seen[k]; ok {
		return s
	}
	if o.seen == nil {
		o.seen = map[outputKey]string{}
	}
	o.seen[k] = out
	return out
}

// send submits j and waits for its ticket, with a "portal.ticket" span
// from submit to Done around a "portal.submit" child.
func send(p *portal.Pool, j *job, outs *outputs, tr *tracer, trace uint64) {
	sp := tr.start("portal.ticket", trace, nil)
	sub := tr.start("portal.submit", 0, sp)
	j.submitAt = time.Now()
	tk, err := p.SubmitAsync(j.user, j.in.tool, j.in.text)
	j.submit = time.Since(j.submitAt)
	sub.end()
	if err == nil {
		j.res, err = tk.Wait(context.Background())
	}
	j.done = time.Now()
	j.err = err
	sp.end()
	j.res.Output = outs.intern(j.in.id, j.res.Output)
}

// load is one load phase.
type load struct {
	jobs []*job
	w    *window
	lag  []float64 // ms behind schedule, per steady submission
	// busy is the span during which load was offered: completions
	// inside it over its length give the completion rate.
	busy time.Duration
}

func (l *load) completedWithinBusy() int {
	n := 0
	for _, j := range l.jobs {
		if j.err == nil && j.done.Sub(l.w.t0) <= l.busy {
			n++
		}
	}
	return n
}

// steadyLoad offers Poisson arrivals at steadyRate for the given
// seconds (an open loop). One submission in every block of
// runawayEvery, at a seed-derived position, is the pigeonhole runaway.
func steadyLoad(r *rig, c *corpus, seed int64, seconds float64, tr *tracer) *load {
	rng := rand.New(rand.NewSource(deriveSeed(seed, "arrivals", 0)))
	n := max(1, int(steadyRate*seconds+0.5))
	phase := runawayPhase + rng.Intn(runawayJitter)
	l := &load{jobs: make([]*job, n), lag: make([]float64, 0, n)}
	offsets := make([]time.Duration, n)
	at := 0.0
	pk := newPicker(c, rng)
	for i := range l.jobs {
		at += rng.ExpFloat64() / steadyRate
		offsets[i] = time.Duration(at * float64(time.Second))
		in := pk.next()
		if i%runawayEvery == phase {
			in = c.runaway
		}
		l.jobs[i] = &job{in: in, user: fmt.Sprintf("s%03d", rng.Intn(users))}
	}
	var wg sync.WaitGroup
	outs := &outputs{}
	l.w = startWindow()
	t0 := l.w.t0
	for i, j := range l.jobs {
		j.due = t0.Add(offsets[i])
		if d := time.Until(j.due); d > 0 {
			time.Sleep(d)
		}
		l.lag = append(l.lag, ms(time.Since(j.due)))
		wg.Add(1)
		go func(j *job, trace uint64) {
			defer wg.Done()
			send(r.pool, j, outs, tr, trace)
		}(j, uint64(i+1))
	}
	l.busy = time.Since(t0)
	wg.Wait()
	return l
}

// saturateLoad runs nproc closed-loop submitters, each waiting for its
// reply before sending the next job, for the given seconds.
func saturateLoad(r *rig, c *corpus, seed int64, seconds float64, tr *tracer) *load {
	subs := runtime.NumCPU()
	perSub := make([][]*job, subs)
	var wg sync.WaitGroup
	outs := &outputs{}
	l := &load{}
	l.w = startWindow()
	t0 := l.w.t0
	deadline := t0.Add(time.Duration(seconds * float64(time.Second)))
	for s := 0; s < subs; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(deriveSeed(seed, "submitter", s)))
			pk := newPicker(c, rng)
			for i := 0; time.Now().Before(deadline); i++ {
				j := &job{in: pk.next(), user: fmt.Sprintf("s%03d", rng.Intn(users)), due: time.Now()}
				send(r.pool, j, outs, tr, uint64(s)<<32|uint64(i+1))
				perSub[s] = append(perSub[s], j)
			}
		}(s)
	}
	wg.Wait()
	l.busy = time.Since(t0)
	for _, js := range perSub {
		l.jobs = append(l.jobs, js...)
	}
	return l
}

// picker draws jobs: the tools in shuffled rounds of five, so every
// run has the same tool mix, and a random corpus input of each.
type picker struct {
	c     *corpus
	rng   *rand.Rand
	round []int
}

func newPicker(c *corpus, rng *rand.Rand) *picker { return &picker{c: c, rng: rng} }

func (p *picker) next() *toolInput {
	if len(p.round) == 0 {
		p.round = p.rng.Perm(len(toolNames))
	}
	ins := p.c.byTool[toolNames[p.round[0]]]
	p.round = p.round[1:]
	return ins[p.rng.Intn(len(ins))]
}

// verdict checks every job's output once per distinct (input, output)
// pair and reports the failures: sheds, tool errors, timeouts and
// wrong outputs.
type verdict struct {
	failed   int
	wrong    int
	literals map[int]int // sis input id -> literals of its result
}

func judge(jobs []*job) *verdict {
	v := &verdict{literals: map[int]int{}}
	seen := map[outputKey]error{}
	for _, j := range jobs {
		if j.err != nil || j.res.Err != "" || j.res.TimedOut || j.res.Abandoned {
			v.failed++
			continue
		}
		key := outputKey{j.in.id, j.res.Output}
		err, ok := seen[key]
		if !ok {
			var lits int
			lits, err = checkOutput(j.in, j.res.Output)
			seen[key] = err
			if err == nil && j.in.tool == "sis" {
				v.literals[j.in.id] = lits
			}
		}
		if err != nil {
			v.failed++
			v.wrong++
		}
	}
	return v
}

// sisLiterals sums the literals of the sis result of every corpus
// input, so the sum depends only on the seed: an input no job drew is
// run through the tool once here.
func sisLiterals(c *corpus, v *verdict) (int, error) {
	total := 0
	for _, in := range c.byTool["sis"] {
		lits, ok := v.literals[in.id]
		if !ok {
			out, err := portal.SISTool().Run(in.text, nil)
			if err == nil {
				lits, err = checkOutput(in, out)
			}
			if err != nil {
				return 0, fmt.Errorf("corpus input %d: %w", in.id, err)
			}
		}
		total += lits
	}
	return total, nil
}

// recoverTimes replays the journal prefix into a fresh pool recoverReps
// times and returns the median RecoverPool time and the last report.
// Each recovery starts on a freshly collected heap whose free pages
// went back to the system, as in a freshly started process, and the
// repetitions are spread over about ten seconds so that one burst of
// machine noise cannot move the median. The recovered pools get stand-in tools, so
// the tickets that were live at the cut re-run instantly when the pool
// drains.
func recoverTimes(prefix []byte) (float64, *portal.RecoveryReport, error) {
	var times []float64
	var rep *portal.RecoveryReport
	for i := 0; i < recoverReps; i++ {
		time.Sleep(recoverGap)
		cfg := poolConfig(nil, obs.NewObserver(nil))
		tools := standIns()
		debug.FreeOSMemory()
		t0 := time.Now()
		p, r, err := portal.RecoverPool(cfg, bytes.NewReader(prefix), tools...)
		d := time.Since(t0)
		if err != nil {
			if p != nil {
				p.Close()
			}
			return 0, nil, fmt.Errorf("recovering the journal: %w", err)
		}
		p.Close()
		times = append(times, ms(d))
		rep = r
	}
	return median(times), rep, nil
}

// emptyRecoveries times n recoveries of a pool from an empty journal:
// recover_ms on a workload that journals nothing.
func emptyRecoveries(n int) []float64 {
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		cfg := poolConfig(nil, obs.NewObserver(nil))
		tools := standIns()
		t0 := time.Now()
		p, _, err := portal.RecoverPool(cfg, bytes.NewReader(nil), tools...)
		d := time.Since(t0)
		if err == nil {
			p.Close()
		}
		times = append(times, ms(d))
	}
	return times
}

type standIn string

func (s standIn) Name() string     { return string(s) }
func (s standIn) Describe() string { return "stand-in for " + string(s) }
func (s standIn) Run(string, <-chan struct{}) (string, error) {
	return "", nil
}

func standIns() []portal.Tool {
	ts := make([]portal.Tool, len(toolNames))
	for i, n := range toolNames {
		ts[i] = standIn(n)
	}
	return ts
}

func runPortalSteady(cfg runConfig) (*outcome, error) {
	return portalWorkload(cfg, steadyLoad, false)
}

func runPortalSaturate(cfg runConfig) (*outcome, error) {
	return portalWorkload(cfg, saturateLoad, true)
}

type loadFunc func(*rig, *corpus, int64, float64, *tracer) *load

// phaseResult is one load phase with its checked outcomes.
type phaseResult struct {
	l      *load
	v      *verdict
	lat    []float64 // ms, non-runaway jobs
	rate   float64   // completions per second while load was offered
	lagP99 float64
	prefix []byte
	jbytes int64
	jsyncs int64
}

// runPhase runs one load phase on r, waits for abandoned runaways to
// return, closes the pool and checks every output.
func runPhase(r *rig, c *corpus, run loadFunc, seed int64, seconds float64, tr *tracer) (*phaseResult, error) {
	l := run(r, c, seed, seconds, tr)
	if err := r.quiesce(); err != nil {
		return nil, err
	}
	l.w.stop()
	r.pool.Close()
	ph := &phaseResult{l: l, v: judge(l.jobs)}
	for _, j := range l.jobs {
		if j.in.runaway {
			continue
		}
		if j.err != nil {
			// A refused job misses any latency limit.
			ph.lat = append(ph.lat, 1e9)
			continue
		}
		ph.lat = append(ph.lat, j.latencyMS())
	}
	ph.rate = float64(l.completedWithinBusy()) / l.busy.Seconds()
	ph.lagP99 = percentile(append([]float64(nil), l.lag...), 0.99)
	ph.prefix, ph.jbytes, ph.jsyncs = r.jr.stats()
	return ph, nil
}

func portalWorkload(cfg runConfig, run loadFunc, closedLoop bool) (*outcome, error) {
	c, r, setup, err := portalSetup(cfg.seed)
	if err != nil {
		return nil, err
	}
	plain, err := runPhase(r, c, run, cfg.seed, cfg.seconds, nil)
	if err != nil {
		return nil, err
	}
	oc := &outcome{attempted: int64(len(plain.l.jobs)), failed: int64(plain.v.failed)}
	if plain.v.wrong > 0 {
		oc.invalidate("%d wrong tool outputs", plain.v.wrong)
	}
	if plain.lagP99 > maxLagMS {
		oc.invalidate("load generator fell behind: p99 lag %.1f ms", plain.lagP99)
	}
	if !cfg.trace {
		done := len(plain.l.jobs) - plain.v.failed
		lits, err := sisLiterals(c, plain.v)
		if err != nil {
			return nil, err
		}
		m := map[string]float64{
			"setup_s":           setup,
			"error_ratio":       errorRatio(plain.v.failed, len(plain.l.jobs)),
			"cpu_ms_per_op":     ms(plain.l.w.cpu) / float64(max(done, 1)),
			"flow_s_per_design": 1 / plain.rate,
			"wirelength":        notApplicable,
			"vias":              notApplicable,
			"route_completion":  notApplicable,
			"literals_after":    float64(max(lits, 1)),
			"area":              notApplicable,
			"critical_delay":    notApplicable,
			"job_ms_p50":        median(plain.lat),
			"job_ms_p99":        tailPercentile(plain.lat, 0.99),
			"capacity_jps":      plain.rate,
		}
		// Recovery is timed on a heap that holds only the corpus and the
		// journal prefix, the same in every run.
		prefix := plain.prefix
		plain = nil
		if m["recover_ms"], _, err = recoverTimes(prefix); err != nil {
			return nil, err
		}
		m["peak_rss_mb"] = peakRSSMB()
		oc.metrics = m
		return oc, nil
	}

	// Traced pass: the same load on a fresh pool with spans on, then
	// every corpus input replayed through its tool.
	r2, err := newRig()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := runPhase(r2, c, run, cfg.seed, cfg.seconds, tr)
	if err != nil {
		return nil, err
	}
	if traced.v.wrong > 0 {
		oc.invalidate("%d wrong tool outputs in the traced pass", traced.v.wrong)
	}
	m := zeroLayers()
	toolMS, err := replayTools(c, tr, m)
	if err != nil {
		oc.invalidate("%v", err)
	}
	portalLayers(m, traced, toolMS)
	_, rep, err := recoverTimes(traced.prefix)
	if err != nil {
		return nil, err
	}
	m["portal.recover_records"] = float64(rep.Records)
	runtimeLayers(m, traced.l.w, len(traced.l.jobs))
	m["loadgen.lag_ms_p99"] = traced.lagP99
	m["loadgen.sent"] = float64(len(traced.l.jobs))
	tr.addSelfTimes(m)
	// Overhead on the workload's headline latency: per-job latency for
	// the open loop, time per completed job for the closed loop.
	before, after := median(plain.lat), median(traced.lat)
	if closedLoop {
		before, after = 1/plain.rate, 1/traced.rate
	}
	m["trace.overhead_pct"] = 100 * (after - before) / before
	oc.metrics = m
	return oc, tr.write(cfg.spanFile)
}

// portalLayers fills the portal's per-layer metrics from a traced
// phase; toolMS maps a corpus input id to its replayed Tool.Run time.
func portalLayers(m map[string]float64, ph *phaseResult, toolMS map[int]float64) {
	var submitUS, wait, service, overhead []float64
	timeouts, abandoned := 0, 0
	for _, j := range ph.l.jobs {
		submitUS = append(submitUS, float64(j.submit)/float64(time.Microsecond))
		if j.err != nil && j.res.When.IsZero() {
			continue
		}
		if j.res.TimedOut {
			timeouts++
		}
		if j.res.Abandoned {
			abandoned++
		}
		wait = append(wait, ms(j.res.When.Sub(j.submitAt)))
		service = append(service, ms(j.res.Duration))
		if t, ok := toolMS[j.in.id]; ok {
			overhead = append(overhead, ms(j.res.Duration)-t)
		}
	}
	admitted := float64(max(len(wait), 1))
	m["portal.submit_us_p50"] = median(submitUS)
	m["portal.submit_us_p99"] = percentile(submitUS, 0.99)
	m["portal.queue_wait_ms_p50"] = median(wait)
	m["portal.queue_wait_ms_p99"] = percentile(wait, 0.99)
	m["portal.service_ms_p50"] = median(service)
	m["portal.overhead_ms"] = median(overhead)
	m["portal.timeouts"] = float64(timeouts)
	m["portal.abandoned"] = float64(abandoned)
	m["portal.journal_bytes_per_job"] = float64(ph.jbytes) / admitted
	m["portal.journal_syncs_per_job"] = float64(ph.jsyncs) / admitted
}

// engineSpan names the span around each tool's Run: the engine layer
// that does the tool's work.
var engineSpan = map[string]string{
	"kbdd":     "bdd.kbdd",
	"espresso": "espresso.minimize",
	"minisat":  "sat.solve",
	"sis":      "mls.sis",
	"axb":      "linsolve.cg",
}

var (
	espressoIters = regexp.MustCompile(`\((\d+) iterations\)`)
	satConflicts  = regexp.MustCompile(`conflicts=(\d+)`)
	cgIters       = regexp.MustCompile(`cg, (\d+) iterations`)
)

// replayTools runs every non-runaway corpus input through its tool's
// Run once, each under a "replay" root span with the engine's span as
// child, and fills the engine metrics. The engines' work counters are
// read from the tools' own output lines. It returns each input's Run
// time in ms.
func replayTools(c *corpus, tr *tracer, m map[string]float64) (map[int]float64, error) {
	tools := map[string]portal.Tool{}
	for _, t := range []portal.Tool{portal.KBDDTool(), portal.EspressoTool(), portal.MiniSATTool(), portal.SISTool(), portal.AxbTool()} {
		tools[t.Name()] = t
	}
	toolMS := map[int]float64{}
	perTool := map[string][]float64{}
	counts := map[string]float64{}
	count := func(key string, re *regexp.Regexp, out string) {
		for _, sub := range re.FindAllStringSubmatch(out, -1) {
			v, _ := strconv.Atoi(sub[1])
			counts[key] += float64(v)
		}
	}
	var firstErr error
	for _, in := range c.all {
		if in.runaway {
			continue
		}
		root := tr.start("replay", uint64(1<<62)|uint64(in.id), nil)
		sp := tr.start(engineSpan[in.tool], 0, root)
		t0 := time.Now()
		out, err := tools[in.tool].Run(in.text, nil)
		d := ms(time.Since(t0))
		sp.end()
		root.end()
		if err == nil {
			_, err = checkOutput(in, out)
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("replaying corpus input %d: %w", in.id, err)
		}
		toolMS[in.id] = d
		perTool[in.tool] = append(perTool[in.tool], d)
		switch in.tool {
		case "espresso":
			count("espresso.iterations", espressoIters, out)
		case "minisat":
			count("sat.conflicts", satConflicts, out)
		case "axb":
			count("linsolve.cg_iterations", cgIters, out)
		}
	}
	m["bdd.kbdd_ms"] = mean(perTool["kbdd"])
	m["espresso.minimize_ms"] = mean(perTool["espresso"])
	m["sat.solve_ms"] = mean(perTool["minisat"])
	m["mls.sis_ms"] = mean(perTool["sis"])
	m["linsolve.cg_ms"] = mean(perTool["axb"])
	for k, v := range counts {
		m[k] = v
	}
	return toolMS, firstErr
}
