// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload against the public APIs of the flow and the tool
// portal, checks every output with oracles that do not use the engine
// under test, and prints one JSON result line:
//
//	perfbench --workload flow_large --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// no spans recorded. With --trace 1 the workload runs a second time
// with the benchmark's own spans on and the result holds the per-layer
// metrics, each layer's self time and the tracing overhead. See
// README.md for the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// runConfig is what a workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// spanFile, when set, receives the traced run's spans as JSON lines.
	spanFile string
}

// outcome is what a workload reports back. The program under test
// only ever sees the generated inputs; everything here is measured
// from outside it.
type outcome struct {
	attempted int64
	failed    int64
	// invalid names why the run cannot be trusted (a wrong output, a
	// generator that fell behind); empty means the run is valid.
	invalid []string
	// metrics holds either the end-to-end or the per-layer values,
	// keyed by the names in metricTable.
	metrics map[string]float64
}

func (o *outcome) invalidate(format string, args ...any) {
	o.invalid = append(o.invalid, fmt.Sprintf(format, args...))
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"flow_large":      runFlowLarge,
	"portal_steady":   runPortalSteady,
	"portal_saturate": runPortalSaturate,
}

func main() {
	workload := flag.String("workload", "", "flow_large, portal_steady or portal_saturate")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 30, "measured time of one run")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	out := flag.String("out", "", "directory for the span file of a traced run (none when empty)")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}
	if cfg.trace && *out != "" {
		cfg.spanFile = filepath.Join(*out, "spans", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
	}

	fp, err := json.Marshal(fingerprint())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("{\"fingerprint\": %s}\n", fp)

	oc, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	res, err := buildResult(oc, cfg.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	for _, why := range oc.invalid {
		fmt.Fprintf(os.Stderr, "perfbench: %s: invalid run: %s\n", *workload, why)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// buildResult attaches units to the workload's values and checks that
// exactly the metrics of the requested kind are present.
func buildResult(oc *outcome, trace bool) (*resultJSON, error) {
	want := endToEnd
	if trace {
		want = perLayer
	}
	res := &resultJSON{
		Correct:   len(oc.invalid) == 0,
		Attempted: oc.attempted,
		Failed:    oc.failed,
		Metrics:   map[string]metricJSON{},
	}
	if oc.attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	for _, m := range want {
		v, ok := oc.metrics[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metricJSON{Value: v, Unit: m.unit}
	}
	var extra []string
	for name := range oc.metrics {
		if _, ok := res.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("unlisted metrics %v", extra)
	}
	return res, nil
}
