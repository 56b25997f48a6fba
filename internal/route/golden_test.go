package route_test

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"vlsicad/internal/bench"
	"vlsicad/internal/place"
	"vlsicad/internal/route"
)

// pathDigest is an FNV-64a digest of every path, nets in name order.
func pathDigest(paths map[string]route.Path) uint64 {
	names := make([]string, 0, len(paths))
	for name := range paths {
		names = append(names, name)
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, name := range names {
		fmt.Fprintf(h, "%s:", name)
		for _, pt := range paths[name] {
			fmt.Fprintf(h, "%d,%d,%d;", pt.X, pt.Y, pt.L)
		}
	}
	return h.Sum64()
}

// TestRouteAllGolden pins RouteAll's routed result on the fract case
// of the benchmark suite, an instance whose rip-up rounds both keep
// and revert attempts and still leave nets failed. Work-saving changes
// to the search or the rip-up loop must leave these values unchanged.
func TestRouteAllGolden(t *testing.T) {
	c := bench.Suite()[0] // fract
	p := bench.Placement(c, 3)
	pl, err := place.Quadratic(p, place.QuadraticOpts{})
	if err != nil {
		t.Fatal(err)
	}
	leg, err := place.Legalize(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	g, nets := bench.Routing(c, leg, p, 3, 0.02)
	res := route.RouteAll(g, nets, route.Opts{
		Alg: route.AStar, Order: route.OrderShortFirst, RipupRounds: 5, Seed: 3,
	})
	const (
		wantLength        = 2766
		wantVias          = 174
		wantDigest uint64 = 0xf47cf08e1de130d0
	)
	wantFailed := []string{"n109", "n136", "n14", "n24", "n31", "n33", "n48", "n5", "n61", "n67", "n73", "n77", "n81", "n86", "n89", "n92"}
	if res.Length != wantLength || res.Vias != wantVias {
		t.Errorf("length/vias = %d/%d, want %d/%d", res.Length, res.Vias, wantLength, wantVias)
	}
	if fmt.Sprint(res.Failed) != fmt.Sprint(wantFailed) {
		t.Errorf("failed = %q, want %q", res.Failed, wantFailed)
	}
	if d := pathDigest(res.Paths); d != wantDigest {
		t.Errorf("path digest = %#x, want %#x", d, wantDigest)
	}
}
