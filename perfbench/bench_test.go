package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"vlsicad/internal/bench"
	"vlsicad/internal/portal"
)

// Self-tests of the benchmark: each workload at a tiny size, the
// oracles against corrupted outputs, and the metric tables against
// BENCHMARK.json. Run with `go test` in this directory.

var tinySpec = bench.NetworkSpec{Inputs: 8, Nodes: 24, Outputs: 4}

func checkOutcome(t *testing.T, oc *outcome, trace bool) *resultJSON {
	t.Helper()
	if len(oc.invalid) > 0 {
		t.Fatalf("invalid run: %v", oc.invalid)
	}
	res, err := buildResult(oc, trace)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 {
		t.Fatalf("result %+v", res)
	}
	if !trace {
		for name, m := range res.Metrics {
			if m.Value == 0 {
				t.Errorf("end-to-end metric %s reads 0", name)
			}
		}
	}
	return res
}

func TestSmokeFlow(t *testing.T) {
	cfg := runConfig{seed: 1}
	a, err := flowWorkload(cfg, 2, tinySpec)
	if err != nil {
		t.Fatal(err)
	}
	ra := checkOutcome(t, a, false)
	if a.failed != 0 {
		t.Fatalf("%d of 2 designs failed", a.failed)
	}
	// The quality-of-results metrics repeat exactly for one seed.
	b, err := flowWorkload(cfg, 2, tinySpec)
	if err != nil {
		t.Fatal(err)
	}
	rb := checkOutcome(t, b, false)
	for _, name := range []string{"wirelength", "vias", "route_completion", "literals_after", "area", "critical_delay"} {
		if ra.Metrics[name] != rb.Metrics[name] {
			t.Errorf("%s: %v then %v for one seed", name, ra.Metrics[name], rb.Metrics[name])
		}
	}

	cfg.trace = true
	tr, err := flowWorkload(cfg, 2, tinySpec)
	if err != nil {
		t.Fatal(err)
	}
	res := checkOutcome(t, tr, true)
	for _, name := range []string{"route.cells_expanded", "mls.extract_s", "self_s.vlsicad", "self_s.route", "trace.spans"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0 after a traced flow", name, res.Metrics[name].Value)
		}
	}
}

func TestSmokePortal(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(runConfig) (*outcome, error)
	}{{"portal_steady", runPortalSteady}, {"portal_saturate", runPortalSaturate}} {
		t.Run(tc.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				oc, err := tc.run(runConfig{seed: 3, seconds: 0.3, trace: trace})
				if err != nil {
					t.Fatal(err)
				}
				res := checkOutcome(t, oc, trace)
				if trace && res.Metrics["self_s.portal"].Value <= 0 {
					t.Errorf("no portal self time in the traced pass")
				}
			}
		})
	}
}

// runTool runs in through the course tool of its name.
func runTool(t *testing.T, in *toolInput) string {
	t.Helper()
	for _, tool := range []portal.Tool{portal.KBDDTool(), portal.EspressoTool(), portal.MiniSATTool(), portal.SISTool(), portal.AxbTool()} {
		if tool.Name() == in.tool {
			out, err := tool.Run(in.text, nil)
			if err != nil {
				t.Fatalf("%s: %v", in.tool, err)
			}
			return out
		}
	}
	t.Fatalf("no tool %q", in.tool)
	return ""
}

// corruptions damage one correct output of each tool the way a wrong
// engine would.
var corruptions = map[string]func(string) string{
	"kbdd": func(out string) string {
		return strings.Replace(out, "satcount(e) = ", "satcount(e) = 1", 1)
	},
	"espresso": func(out string) string {
		// Drop the last cube of the cover.
		lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
		for i := len(lines) - 1; i >= 0; i-- {
			if f := strings.Fields(lines[i]); len(f) == 2 && !strings.HasPrefix(f[0], ".") {
				return strings.Join(append(lines[:i], lines[i+1:]...), "\n")
			}
		}
		return out
	},
	"minisat": func(out string) string {
		// Flip every value of the model.
		var b strings.Builder
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "v ") {
				f := strings.Fields(line)
				for i := 1; i < len(f)-1; i++ {
					if strings.HasPrefix(f[i], "-") {
						f[i] = f[i][1:]
					} else {
						f[i] = "-" + f[i]
					}
				}
				line = strings.Join(f, " ")
			}
			b.WriteString(line + "\n")
		}
		return b.String()
	},
	"sis": func(out string) string {
		// Complement the first input literal of every cover row of
		// the result.
		i := strings.Index(out, "# resulting network\n")
		lines := strings.Split(out[i:], "\n")
		for k, line := range lines {
			if f := strings.Fields(line); len(f) == 2 && f[1] == "1" && (f[0][0] == '0' || f[0][0] == '1') {
				lines[k] = string('0'+'1'-f[0][0]) + line[1:]
			}
		}
		return out[:i] + strings.Join(lines, "\n")
	},
	"axb": func(out string) string {
		return strings.Replace(out, "x1 = ", "x1 = 1", 1)
	},
}

func TestCorruptedOutputCountsAsFailed(t *testing.T) {
	c, err := makeCorpus(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range c.all {
		if in.runaway {
			continue
		}
		out := runTool(t, in)
		if _, err := checkOutput(in, out); err != nil {
			t.Fatalf("%s: correct output rejected: %v", in.tool, err)
		}
		bad := corruptions[in.tool](out)
		if bad == out {
			t.Fatalf("%s: corruption left the output unchanged", in.tool)
		}
		if _, err := checkOutput(in, bad); err == nil {
			t.Errorf("%s: corrupted output accepted", in.tool)
		}
		jobs := []*job{
			{in: in, res: portal.JobResult{Output: out}},
			{in: in, res: portal.JobResult{Output: bad}},
		}
		if v := judge(jobs); v.failed != 1 || v.wrong != 1 {
			t.Errorf("%s: judged %d failed, %d wrong; want 1 and 1", in.tool, v.failed, v.wrong)
		}
	}
}

func TestRunawayIsUnsatisfiable(t *testing.T) {
	// PHP(3) is small enough to solve here; the oracle accepts only
	// UNSATISFIABLE for the pigeonhole family.
	in := phpInput(3)
	out := runTool(t, in)
	if _, err := checkOutput(in, out); err != nil {
		t.Fatal(err)
	}
	if _, err := checkOutput(in, strings.Replace(out, "UNSATISFIABLE", "SATISFIABLE", 1)); err == nil {
		t.Fatal("SATISFIABLE accepted for a pigeonhole formula")
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, defs []metricDef, got []struct{ Name, Unit, Better string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: %d metrics here, %d in BENCHMARK.json", kind, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: %+v here, %+v in BENCHMARK.json", kind, i, d, g)
			}
		}
	}
	same("end_to_end", endToEnd, cfg.EndToEnd)
	same("per_layer", perLayer, cfg.PerLayer)
	for _, w := range cfg.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s of BENCHMARK.json is not implemented", w.Name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []spanRec{
		{Name: "replay", ID: 1, Start: 0, End: 100},
		{Name: "route.route_all", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "mls.extract", ID: 3, Parent: 1, Start: 30, End: 60},
	}}
	got := tr.selfTimes()
	if got["bench"] != 50e-9 || got["route"] != 30e-9 || got["mls"] != 30e-9 {
		t.Fatalf("self times %v", got)
	}
}

func TestPercentile(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	xs := []float64{5, 1, 4, 2, 3}
	if p := percentile(xs, 0.5); !near(p, 3) {
		t.Fatalf("median %v", p)
	}
	// Harrell–Davis estimates, computed independently.
	if p := percentile(xs, 0.99); !near(p, 4.989019922581379) {
		t.Fatalf("p99 %v", p)
	}
	if p := percentile([]float64{1, 2, 3, 4, 100}, 0.5); !near(p, 8.5024) {
		t.Fatalf("median with an outlier %v", p)
	}
	if p := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.25); !near(p, 3.249034189876772) {
		t.Fatalf("lower quartile %v", p)
	}
	big := make([]float64, 20000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if p := percentile(big, 0.99); math.Abs(p-19800.5) > 1 {
		t.Fatalf("p99 of 1..20000 %v", p)
	}
	if p := percentile(nil, 0.5); p != 0 {
		t.Fatalf("empty %v", p)
	}
}
