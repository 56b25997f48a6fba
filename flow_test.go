package vlsicad

import (
	"sort"
	"strings"
	"testing"

	"vlsicad/internal/bench"
	"vlsicad/internal/route"
)

const adderBLIF = `
.model adder
.inputs a b cin
.outputs sum cout
.names a b cin sum
100 1
010 1
001 1
111 1
.names a b cin cout
11- 1
1-1 1
-11 1
.end
`

func TestRunFlowAdder(t *testing.T) {
	f, err := RunFlow(strings.NewReader(adderBLIF), FlowOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !f.Equivalent {
		t.Error("synthesis should be verified equivalent")
	}
	if f.Area <= 0 || len(f.Mapping.Matches) == 0 {
		t.Error("mapping missing")
	}
	if f.HPWL <= 0 {
		t.Error("no wirelength")
	}
	if len(f.Routing.Failed) > 0 {
		t.Errorf("failed nets: %v", f.Routing.Failed)
	}
	if f.CriticalDelay <= 0 {
		t.Error("no timing")
	}
}

func TestRunFlowWithWireModelSlower(t *testing.T) {
	base, err := RunFlow(strings.NewReader(adderBLIF), FlowOpts{})
	if err != nil {
		t.Fatal(err)
	}
	wired, err := RunFlow(strings.NewReader(adderBLIF), FlowOpts{WireModel: true})
	if err != nil {
		t.Fatal(err)
	}
	if wired.CriticalDelay <= base.CriticalDelay {
		t.Errorf("wire model should add delay: %g vs %g", wired.CriticalDelay, base.CriticalDelay)
	}
}

func TestRunFlowSynthesisSavesLiterals(t *testing.T) {
	nw := bench.Network(bench.NetworkSpec{Name: "s", Inputs: 8, Nodes: 30, Outputs: 4}, 9)
	f, err := RunFlowOnNetwork(nw, FlowOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if f.LiteralsAfter > f.LiteralsBefore {
		t.Errorf("synthesis grew literals: %d -> %d", f.LiteralsBefore, f.LiteralsAfter)
	}
	if !f.Equivalent {
		t.Error("synthesis verification failed")
	}
}

func TestRunFlowBadInput(t *testing.T) {
	if _, err := RunFlow(strings.NewReader("garbage"), FlowOpts{}); err == nil {
		t.Error("garbage BLIF should fail")
	}
}

func TestRunFlowVerifyMapping(t *testing.T) {
	f, err := RunFlow(strings.NewReader(adderBLIF), FlowOpts{VerifyMapping: true})
	if err != nil {
		t.Fatal(err)
	}
	if !f.Equivalent {
		t.Error("flow with mapping verification should succeed")
	}
}

func TestRunFlowDRCClean(t *testing.T) {
	f, err := RunFlow(strings.NewReader(adderBLIF), FlowOpts{CheckDRC: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.DRC) != 0 {
		t.Errorf("legally routed design has %d DRC violations: %v", len(f.DRC), f.DRC[0])
	}
}

func TestRunFlowDelayObjective(t *testing.T) {
	f, err := RunFlow(strings.NewReader(adderBLIF), FlowOpts{MapObjective: 1}) // MinDelay
	if err != nil {
		t.Fatal(err)
	}
	if f.CriticalDelay <= 0 {
		t.Error("no timing under delay mapping")
	}
}

// TestRunFlowRoutedPathsDisjoint checks that no grid cell lies on two
// nets' routed paths. Rip-up and revert free a path's wires but must
// keep its pins reserved, or another net may wire across a pin that
// its owner later routes onto.
func TestRunFlowRoutedPathsDisjoint(t *testing.T) {
	nw := bench.Network(bench.NetworkSpec{Name: "disjoint", Inputs: 10, Nodes: 40, Outputs: 5}, 1)
	f, err := RunFlowOnNetwork(nw, FlowOpts{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(f.Routing.Paths))
	for name := range f.Routing.Paths {
		names = append(names, name)
	}
	sort.Strings(names)
	owner := map[route.Point]string{}
	shared := 0
	for _, name := range names {
		for _, pt := range f.Routing.Paths[name] {
			if o, taken := owner[pt]; taken {
				if shared == 0 {
					t.Errorf("cell %v is on the paths of nets %s and %s", pt, o, name)
				}
				shared++
				continue
			}
			owner[pt] = name
		}
	}
	if shared > 0 {
		t.Errorf("%d grid cells are on two nets' paths (of %d routed nets)", shared, len(names))
	}
}
