package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"vlsicad/internal/bench"
	"vlsicad/internal/netlist"
)

// Homework-sized tool inputs for the portal workloads. Each input
// keeps what its oracle needs to check the tool's output without the
// engine under test.

// deriveSeed mixes the run seed with a label and an index into an
// independent, positive stream seed.
func deriveSeed(seed int64, label string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, label, i)
	z := h.Sum64()
	// SplitMix64 finalizer spreads nearby inputs.
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// toolInput is one submission text plus its oracle data.
type toolInput struct {
	id   int // index in the corpus
	tool string
	text string

	// kbdd: the two sums of products (cubes of literals, +v / -(v+1))
	// and the variables quantified away.
	kbddF, kbddG [][]int
	kbddExists   []int
	// espresso: input rows per output, as cube strings over '0','1','-'.
	plaOn [][]string
	// minisat: the clauses, DIMACS-numbered.
	clauses [][]int
	// runaway marks the pigeonhole instance that outlives the timeout.
	runaway bool
	// sis: the source network.
	source *netlist.Network
	// axb: the dense system.
	a [][]float64
	b []float64
}

const (
	kbddVars    = 14
	kbddTerms   = 8
	plaInputs   = 10
	plaOutputs  = 2
	plaCubes    = 40
	satVars     = 80
	satRatio    = 4.2
	axbN        = 40
	runawayHole = 8 // PHP(8): 9 pigeons, 8 holes
)

var sisSpec = bench.NetworkSpec{Inputs: 10, Nodes: 30, Outputs: 6}

// toolNames is the submission mix: each job picks one uniformly.
var toolNames = []string{"kbdd", "espresso", "minisat", "sis", "axb"}

// corpus holds perTool distinct inputs of each tool, derived from the
// seed; jobs draw from it.
type corpus struct {
	byTool  map[string][]*toolInput
	all     []*toolInput
	runaway *toolInput
}

func makeCorpus(seed int64, perTool int) (*corpus, error) {
	c := &corpus{byTool: map[string][]*toolInput{}}
	add := func(in *toolInput) {
		in.id = len(c.all)
		c.all = append(c.all, in)
		c.byTool[in.tool] = append(c.byTool[in.tool], in)
	}
	for i := 0; i < perTool; i++ {
		add(kbddInput(rand.New(rand.NewSource(deriveSeed(seed, "kbdd", i)))))
		add(plaInput(rand.New(rand.NewSource(deriveSeed(seed, "espresso", i)))))
		add(satInput(rand.New(rand.NewSource(deriveSeed(seed, "minisat", i)))))
		in, err := sisInput(deriveSeed(seed, "sis", i), i)
		if err != nil {
			return nil, err
		}
		add(in)
		add(axbInput(rand.New(rand.NewSource(deriveSeed(seed, "axb", i)))))
	}
	c.runaway = phpInput(runawayHole)
	c.runaway.id = len(c.all)
	c.all = append(c.all, c.runaway)
	return c, nil
}

// randomCube draws a product term of 2..4 distinct literals over n
// variables.
func randomCube(rng *rand.Rand, n int) []int {
	k := 2 + rng.Intn(3)
	vars := rng.Perm(n)[:k]
	cube := make([]int, k)
	for i, v := range vars {
		if rng.Intn(2) == 0 {
			cube[i] = v + 1
		} else {
			cube[i] = -(v + 1)
		}
	}
	return cube
}

func sopText(sop [][]int) string {
	terms := make([]string, len(sop))
	for i, cube := range sop {
		lits := make([]string, len(cube))
		for j, l := range cube {
			if l > 0 {
				lits[j] = fmt.Sprintf("x%d", l-1)
			} else {
				lits[j] = fmt.Sprintf("~x%d", -l-1)
			}
		}
		terms[i] = "(" + strings.Join(lits, " & ") + ")"
	}
	return strings.Join(terms, " | ")
}

// kbddInput: two random 8-term SOPs over 14 variables, their xor,
// two variables quantified away, and the satisfying-assignment count.
func kbddInput(rng *rand.Rand) *toolInput {
	in := &toolInput{tool: "kbdd"}
	for t := 0; t < kbddTerms; t++ {
		in.kbddF = append(in.kbddF, randomCube(rng, kbddVars))
		in.kbddG = append(in.kbddG, randomCube(rng, kbddVars))
	}
	in.kbddExists = rng.Perm(kbddVars)[:2]
	var b strings.Builder
	b.WriteString("var")
	for v := 0; v < kbddVars; v++ {
		fmt.Fprintf(&b, " x%d", v)
	}
	fmt.Fprintf(&b, "\nf = %s\ng = %s\nh = f ^ g\nexists e h x%d x%d\nsatcount e\n",
		sopText(in.kbddF), sopText(in.kbddG), in.kbddExists[0], in.kbddExists[1])
	in.text = b.String()
	return in
}

// plaInput: a type-f PLA with 10 inputs, 2 outputs and 40 cubes.
func plaInput(rng *rand.Rand) *toolInput {
	in := &toolInput{tool: "espresso", plaOn: make([][]string, plaOutputs)}
	var b strings.Builder
	fmt.Fprintf(&b, ".i %d\n.o %d\n.p %d\n", plaInputs, plaOutputs, plaCubes)
	for r := 0; r < plaCubes; r++ {
		cube := make([]byte, plaInputs)
		for v := range cube {
			cube[v] = "01-"[rng.Intn(3)]
		}
		outs := []byte{'0', '0'}
		outs[rng.Intn(plaOutputs)] = '1'
		if rng.Intn(4) == 0 {
			outs = []byte{'1', '1'}
		}
		for o := range outs {
			if outs[o] == '1' {
				in.plaOn[o] = append(in.plaOn[o], string(cube))
			}
		}
		fmt.Fprintf(&b, "%s %s\n", cube, outs)
	}
	b.WriteString(".e\n")
	in.text = b.String()
	return in
}

// satInput: random 3-SAT over 80 variables at clause ratio 4.2 with a
// planted solution, so every instance is satisfiable.
func satInput(rng *rand.Rand) *toolInput {
	in := &toolInput{tool: "minisat"}
	planted := make([]bool, satVars)
	for v := range planted {
		planted[v] = rng.Intn(2) == 0
	}
	nClauses := int(satRatio * satVars)
	for len(in.clauses) < nClauses {
		vars := rng.Perm(satVars)[:3]
		cl := make([]int, 3)
		ok := false
		for i, v := range vars {
			pos := rng.Intn(2) == 0
			if pos {
				cl[i] = v + 1
			} else {
				cl[i] = -(v + 1)
			}
			ok = ok || pos == planted[v]
		}
		if ok {
			in.clauses = append(in.clauses, cl)
		}
	}
	in.text = dimacs(satVars, in.clauses)
	return in
}

// phpInput: the pigeonhole formula PHP(holes), unsatisfiable and
// exponentially hard for resolution. PHP(8) runs a few seconds, past
// the portal's 2 s timeout, and then finishes on its own.
func phpInput(holes int) *toolInput {
	in := &toolInput{tool: "minisat", runaway: true}
	v := func(p, h int) int { return p*holes + h + 1 }
	for p := 0; p <= holes; p++ {
		var cl []int
		for h := 0; h < holes; h++ {
			cl = append(cl, v(p, h))
		}
		in.clauses = append(in.clauses, cl)
	}
	for h := 0; h < holes; h++ {
		for p := 0; p <= holes; p++ {
			for q := p + 1; q <= holes; q++ {
				in.clauses = append(in.clauses, []int{-v(p, h), -v(q, h)})
			}
		}
	}
	in.text = dimacs((holes+1)*holes, in.clauses)
	return in
}

func dimacs(nvars int, clauses [][]int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "p cnf %d %d\n", nvars, len(clauses))
	for _, cl := range clauses {
		for _, l := range cl {
			fmt.Fprintf(&b, "%d ", l)
		}
		b.WriteString("0\n")
	}
	return b.String()
}

// sisInput: a 30-node random network with the sweep / fx / simplify
// script.
func sisInput(seed int64, i int) (*toolInput, error) {
	spec := sisSpec
	spec.Name = fmt.Sprintf("hw%d", i)
	nw := bench.Network(spec, seed)
	var b strings.Builder
	if err := netlist.WriteBLIF(&b, nw); err != nil {
		return nil, err
	}
	b.WriteString("sweep\nfx\nsimplify\n")
	return &toolInput{tool: "sis", text: b.String(), source: nw}, nil
}

// axbInput: a 40×40 sparse symmetric positive-definite system, the
// shape of a quadratic-placement homework (a weighted graph Laplacian
// plus anchor weights on the diagonal), solved by cg.
func axbInput(rng *rand.Rand) *toolInput {
	n := axbN
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for k := 0; k < 2; k++ {
			j := rng.Intn(n)
			if j == i || a[i][j] != 0 {
				continue
			}
			w := float64(1 + rng.Intn(9))
			a[i][j], a[j][i] = -w, -w
			a[i][i] += w
			a[j][j] += w
		}
	}
	b := make([]float64, n)
	for i := range b {
		a[i][i] += float64(1 + rng.Intn(4))
		b[i] = float64(rng.Intn(19) - 9)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d cg\n", n)
	for i := range a {
		for j, v := range a[i] {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%g", v)
		}
		sb.WriteByte('\n')
	}
	for i, v := range b {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%g", v)
	}
	sb.WriteByte('\n')
	return &toolInput{tool: "axb", text: sb.String(), a: a, b: b}
}
