package route

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Multi-pin net routing: real netlists have nets with more than two
// pins. The course's project used two-pin nets; this extension routes
// k-pin nets by growing a Steiner-style tree — each remaining pin is
// connected to the nearest point of the already-routed tree, the
// standard sequential construction.

// MultiNet is a net with two or more pins.
type MultiNet struct {
	Name string
	Pins []Point
}

// Tree is a routed multi-pin net: the union of the connecting paths.
type Tree struct {
	Name  string
	Paths []Path
}

// Points returns every grid point used by the tree (deduplicated).
func (t *Tree) Points() []Point {
	seen := map[Point]bool{}
	var out []Point
	for _, p := range t.Paths {
		for _, pt := range p {
			if !seen[pt] {
				seen[pt] = true
				out = append(out, pt)
			}
		}
	}
	return out
}

// Wirelength counts wire segments over all paths.
func (t *Tree) Wirelength() int {
	n := 0
	for _, p := range t.Paths {
		n += p.Wirelength()
	}
	return n
}

// Vias counts layer changes over all paths.
func (t *Tree) Vias() int {
	n := 0
	for _, p := range t.Paths {
		n += p.Vias()
	}
	return n
}

// footprint accumulates the flat cell indices a multi-pin route read
// from its grid snapshot: every cell any internal search relaxed,
// plus the net's pins (whose blockage the buried-pin check reads).
// The wave engine checks it against same-wave commits; nil disables
// recording.
type footprint struct {
	plane int
	cells []int32
}

func (fp *footprint) addTouched(st *searchState) {
	if fp != nil {
		fp.cells = append(fp.cells, st.touched...)
	}
}

func (fp *footprint) addPoint(g *Grid, p Point) {
	if fp != nil && g.In(p) {
		fp.cells = append(fp.cells, int32(p.L*fp.plane+p.Y*g.W+p.X))
	}
}

// RouteMultiNet routes one multi-pin net on the grid. The routed tree
// is NOT marked on the grid; callers block t.Points() for subsequent
// nets. Pins are connected in order of distance to the first pin
// (a cheap Prim-like ordering).
func RouteMultiNet(g *Grid, net MultiNet, alg Algorithm) (*Tree, int, error) {
	return routeMultiNet(g, net, alg, nil)
}

func routeMultiNet(g *Grid, net MultiNet, alg Algorithm, fp *footprint) (*Tree, int, error) {
	if len(net.Pins) < 2 {
		return nil, 0, fmt.Errorf("route: net %s has %d pins, need >= 2", net.Name, len(net.Pins))
	}
	for _, p := range net.Pins {
		if !g.In(p) {
			return nil, 0, fmt.Errorf("route: net %s pin %v off grid", net.Name, p)
		}
	}
	// Order pins by Manhattan distance to pin 0.
	pins := append([]Point(nil), net.Pins...)
	d0 := func(p Point) int {
		dx, dy := p.X-pins[0].X, p.Y-pins[0].Y
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		return dx + dy
	}
	sort.SliceStable(pins[1:], func(i, j int) bool { return d0(pins[1+i]) < d0(pins[1+j]) })

	tree := &Tree{Name: net.Name}
	inTree := map[Point]bool{pins[0]: true}
	expanded := 0
	work := g.Clone()
	for _, pin := range pins[1:] {
		if inTree[pin] {
			continue
		}
		// Route from this pin to the nearest tree point: run the maze
		// search from the pin toward a virtual multi-target by trying
		// the closest tree points in distance order and keeping the
		// best result. (A true multi-target wavefront would expand
		// once; at course scale per-target searches stay simple and
		// the tests pin down optimality per connection.)
		targets := make([]Point, 0, len(inTree))
		for t := range inTree {
			targets = append(targets, t)
		}
		sort.Slice(targets, func(i, j int) bool {
			di := manhattanPts(pin, targets[i])
			dj := manhattanPts(pin, targets[j])
			if di != dj {
				return di < dj
			}
			return lessPoint(targets[i], targets[j])
		})
		var best Path
		bestCost := -1
		tries := 0
		for _, tgt := range targets {
			if bestCost >= 0 && manhattanPts(pin, tgt)*work.Cost.Unit > bestCost {
				break // cannot beat the incumbent
			}
			if tries > 8 && bestCost >= 0 {
				break
			}
			tries++
			// Tree points are blocked on work; allow this target.
			path, cost, exp, err := routeAllowingTarget(work, pin, tgt, alg, inTree, fp)
			expanded += exp
			if err != nil {
				continue
			}
			if bestCost < 0 || cost < bestCost {
				best, bestCost = path, cost
			}
		}
		if bestCost < 0 {
			return nil, expanded, fmt.Errorf("route: net %s pin %v unreachable from tree", net.Name, pin)
		}
		tree.Paths = append(tree.Paths, best)
		for _, pt := range best {
			inTree[pt] = true
			work.Block(pt) // later connections may not cross the tree except at joins
		}
	}
	return tree, expanded, nil
}

func manhattanPts(a, b Point) int {
	dx, dy := a.X-b.X, a.Y-b.Y
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

func lessPoint(a, b Point) bool {
	if a.X != b.X {
		return a.X < b.X
	}
	if a.Y != b.Y {
		return a.Y < b.Y
	}
	return a.L < b.L
}

// routeAllowingTarget is RouteNet with the whole current tree usable
// as free landing space at the target end.
func routeAllowingTarget(g *Grid, from, to Point, alg Algorithm, tree map[Point]bool, fp *footprint) (Path, int, int, error) {
	// Temporarily unblock the tree points adjacent to the search: we
	// simply treat tree membership as usable in a wrapped grid view by
	// unblocking the target point; since all tree points were blocked
	// on this grid, unblock them for the search and re-block after.
	var unblocked []Point
	for pt := range tree {
		if g.Blocked(pt) {
			g.Unblock(pt)
			unblocked = append(unblocked, pt)
		}
	}
	defer func() {
		for _, pt := range unblocked {
			g.Block(pt)
		}
	}()
	st := getState(g.W, g.H)
	defer putState(st)
	path, cost, exp, err := routeNetState(g, Net{Name: "seg", A: from, B: to}, alg, st)
	fp.addTouched(st)
	if err != nil {
		return nil, 0, exp, err
	}
	// Trim the path at its first contact with the tree (it may touch
	// the tree before the chosen target).
	for i, pt := range path {
		if tree[pt] {
			path = path[:i+1]
			cost = PathCost(g, path)
			break
		}
	}
	return path, cost, exp, nil
}

// MultiOpts configures RouteAllMultiOpts.
type MultiOpts struct {
	// Workers selects serial (<=1) vs net-parallel wave routing, with
	// the same wave/commit/conflict protocol — and the same
	// result-identity guarantee — as Opts.Workers (DESIGN.md §8).
	Workers int
	// WaveSize caps speculative nets per wave; 0 means 4×Workers.
	WaveSize int
	// OnWave receives one WaveStats per finished wave (parallel only).
	OnWave func(WaveStats)
}

// RouteAllMulti routes a set of multi-pin nets sequentially. Every
// net's pins are reserved up front so no wire may cross a foreign pin;
// each routed tree is blocked for the nets that follow. It returns the
// trees plus the names of failed nets.
func RouteAllMulti(g *Grid, nets []MultiNet, alg Algorithm) (map[string]*Tree, []string) {
	return RouteAllMultiOpts(g, nets, alg, MultiOpts{})
}

// RouteAllMultiOpts is RouteAllMulti with an explicit engine choice:
// opts.Workers > 1 routes waves of nets concurrently against a
// snapshot of the grid and commits trees in input order, producing
// output identical to the serial engine.
func RouteAllMultiOpts(g *Grid, nets []MultiNet, alg Algorithm, opts MultiOpts) (map[string]*Tree, []string) {
	// Reserve all pins.
	reserved := map[Point]bool{}
	for _, n := range nets {
		for _, p := range n.Pins {
			if g.In(p) && !g.Blocked(p) {
				g.Block(p)
				reserved[p] = true
			}
		}
	}
	out := map[string]*Tree{}
	var failed []string
	if opts.Workers > 1 {
		failed = routeMultiWaves(g, nets, alg, opts, reserved, out)
	} else {
		for _, n := range nets {
			t := routeOneMulti(g, n, alg, reserved, nil)
			if t == nil {
				failed = append(failed, n.Name)
				continue
			}
			out[n.Name] = t
			for _, pt := range t.Points() {
				g.Block(pt)
			}
		}
	}
	sort.Strings(failed)
	return out, failed
}

// routeOneMulti is one serial step of RouteAllMulti: release the
// net's own reserved pins, route, and on failure restore the
// reservation. On success the caller blocks the tree's points (all of
// the net's pins lie on the tree, so the released pins end up blocked
// again). Returns nil on failure.
func routeOneMulti(g *Grid, n MultiNet, alg Algorithm, reserved map[Point]bool, fp *footprint) *Tree {
	var mine []Point
	for _, p := range n.Pins {
		if reserved[p] {
			g.Unblock(p)
			delete(reserved, p)
			mine = append(mine, p)
		}
	}
	restore := func() {
		for _, p := range mine {
			g.Block(p)
			reserved[p] = true
		}
	}
	// A pin buried under an obstacle or an earlier tree is fatal
	// for this net.
	for _, p := range n.Pins {
		if !g.In(p) || g.Blocked(p) {
			restore()
			return nil
		}
	}
	t, _, err := routeMultiNet(g, n, alg, fp)
	if err != nil {
		restore()
		return nil
	}
	return t
}

// routeMultiWaves is the net-parallel phase of RouteAllMultiOpts,
// mirroring routeWaves: each worker replays the serial per-net grid
// preparation (releasing the net's own reserved pins) on a private
// copy of the snapshot, routes speculatively, and the commit pass
// accepts trees in input order while any net whose footprint — the
// cells its searches and pin checks read — intersects a same-wave
// commit is re-queued together with everything after it.
func routeMultiWaves(g *Grid, nets []MultiNet, alg Algorithm, opts MultiOpts,
	reserved map[Point]bool, out map[string]*Tree) []string {
	workers := opts.Workers
	waveSize := opts.WaveSize
	if waveSize <= 0 {
		waveSize = 4 * workers
	}
	plane := g.W * g.H
	stamp := make([]uint32, Layers*plane)
	var epoch uint32
	type mspec struct {
		tree *Tree
		mine []Point // pins this net would release from the reservation
		fp   footprint
	}
	specs := make([]mspec, waveSize)
	pending := make([]int, len(nets))
	for i := range pending {
		pending[i] = i
	}
	var failed []string
	for waveIdx := 0; len(pending) > 0; waveIdx++ {
		n := waveSize
		if n > len(pending) {
			n = len(pending)
		}
		batch := pending[:n]
		// Search phase: g and reserved are read-only snapshots; each
		// worker edits a private grid copy per net.
		var next int32
		nw := workers
		if nw > n {
			nw = n
		}
		var wg sync.WaitGroup
		for wi := 0; wi < nw; wi++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				wgrid := g.Clone()
				for {
					i := int(atomic.AddInt32(&next, 1)) - 1
					if i >= n {
						return
					}
					net := nets[batch[i]]
					s := &specs[i]
					s.tree = nil
					s.mine = s.mine[:0]
					s.fp.plane = plane
					s.fp.cells = s.fp.cells[:0]
					wgrid.copyBlockedFrom(g)
					for _, p := range net.Pins {
						// The buried-pin check and the searches read
						// the pins' state, so they are always part of
						// the footprint.
						s.fp.addPoint(g, p)
						if reserved[p] {
							wgrid.Unblock(p)
							s.mine = append(s.mine, p)
						}
					}
					buried := false
					for _, p := range net.Pins {
						if !wgrid.In(p) || wgrid.Blocked(p) {
							buried = true
							break
						}
					}
					if buried {
						continue
					}
					t, _, err := routeMultiNet(wgrid, net, alg, &s.fp)
					if err == nil {
						s.tree = t
					}
				}
			}()
		}
		wg.Wait()
		// Commit phase, strictly in input order.
		epoch++
		committed, failedHere, conflicts := 0, 0, 0
		commitEnd := n
		for i := 0; i < n; i++ {
			s := &specs[i]
			hit := false
			for _, c := range s.fp.cells {
				if stamp[c] == epoch {
					hit = true
					break
				}
			}
			if hit {
				conflicts++
				commitEnd = i
				break
			}
			net := nets[batch[i]]
			if s.tree == nil {
				// Serial equivalent: pins released, route failed,
				// reservation restored — the grid is unchanged.
				failed = append(failed, net.Name)
				failedHere++
				continue
			}
			for _, p := range s.mine {
				delete(reserved, p)
			}
			out[net.Name] = s.tree
			for _, pt := range s.tree.Points() {
				g.Block(pt)
				stamp[pt.L*plane+pt.Y*g.W+pt.X] = epoch
			}
			committed++
		}
		pending = pending[commitEnd:]
		if opts.OnWave != nil {
			opts.OnWave(WaveStats{
				Index: waveIdx, Nets: n, Committed: committed,
				Failed: failedHere, Conflicts: conflicts,
				Requeued: n - commitEnd,
			})
		}
	}
	return failed
}
