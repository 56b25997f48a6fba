package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"vlsicad/internal/bdd"
	"vlsicad/internal/netlist"
)

// Output oracles. None of them runs the engine that produced the
// output: SAT models are checked clause by clause, kbdd counts by
// brute-force evaluation, espresso and sis results by BDD equivalence
// with the input, and axb solutions by their residual.

// checkOutput verifies one tool output against its input. For sis it
// also returns the literal count of the resulting network.
func checkOutput(in *toolInput, out string) (literals int, err error) {
	switch in.tool {
	case "kbdd":
		return 0, checkKBDD(in, out)
	case "espresso":
		return 0, checkEspresso(in, out)
	case "minisat":
		return 0, checkSAT(in, out)
	case "sis":
		return checkSIS(in, out)
	case "axb":
		return 0, checkAxb(in, out)
	}
	return 0, fmt.Errorf("no oracle for tool %q", in.tool)
}

func evalSOP(sop [][]int, a uint) bool {
	for _, cube := range sop {
		ok := true
		for _, l := range cube {
			if l > 0 && a&(1<<(l-1)) == 0 || l < 0 && a&(1<<(-l-1)) != 0 {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func checkKBDD(in *toolInput, out string) error {
	const key = "satcount(e) = "
	i := strings.LastIndex(out, key)
	if i < 0 {
		return fmt.Errorf("kbdd: no satcount in output")
	}
	line, _, _ := strings.Cut(out[i+len(key):], "\n")
	got, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
	if err != nil {
		return fmt.Errorf("kbdd: bad satcount %q", line)
	}
	e0, e1 := uint(1)<<in.kbddExists[0], uint(1)<<in.kbddExists[1]
	want := int64(0)
	for a := uint(0); a < 1<<kbddVars; a++ {
		for _, q := range []uint{0, e0, e1, e0 | e1} {
			b := a&^(e0|e1) | q
			if evalSOP(in.kbddF, b) != evalSOP(in.kbddG, b) {
				want++
				break
			}
		}
	}
	if got != want {
		return fmt.Errorf("kbdd: satcount %d, brute force %d", got, want)
	}
	return nil
}

// cubeNode builds the BDD of a PLA input cube ('0', '1', '-').
func cubeNode(m *bdd.Manager, cube string) (bdd.Node, error) {
	f := m.True()
	for v, c := range cube {
		switch c {
		case '1':
			f = m.And(f, m.Var(v))
		case '0':
			f = m.And(f, m.NVar(v))
		case '-':
		default:
			return f, fmt.Errorf("bad cube %q", cube)
		}
	}
	return f, nil
}

func checkEspresso(in *toolInput, out string) error {
	outOn := make([][]string, plaOutputs)
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], ".") || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != 2 || len(f[0]) != plaInputs || len(f[1]) != plaOutputs {
			return fmt.Errorf("espresso: bad output row %q", line)
		}
		for o := range f[1] {
			if f[1][o] == '1' {
				outOn[o] = append(outOn[o], f[0])
			}
		}
	}
	m := bdd.New(plaInputs)
	cover := func(cubes []string) (bdd.Node, error) {
		f := m.False()
		for _, c := range cubes {
			n, err := cubeNode(m, c)
			if err != nil {
				return f, err
			}
			f = m.Or(f, n)
		}
		return f, nil
	}
	for o := 0; o < plaOutputs; o++ {
		want, err := cover(in.plaOn[o])
		if err != nil {
			return err
		}
		got, err := cover(outOn[o])
		if err != nil {
			return fmt.Errorf("espresso: %w", err)
		}
		if got != want {
			return fmt.Errorf("espresso: output %d is not equivalent to its input", o)
		}
	}
	return nil
}

func checkSAT(in *toolInput, out string) error {
	status := ""
	var model map[int]bool
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "s "):
			status = strings.TrimSpace(line[2:])
		case strings.HasPrefix(line, "v "):
			model = map[int]bool{}
			for _, f := range strings.Fields(line[2:]) {
				l, err := strconv.Atoi(f)
				if err != nil {
					return fmt.Errorf("minisat: bad model literal %q", f)
				}
				if l > 0 {
					model[l] = true
				} else if l < 0 {
					model[-l] = false
				}
			}
		}
	}
	if in.runaway {
		if status != "UNSATISFIABLE" {
			return fmt.Errorf("minisat: pigeonhole instance reported %q", status)
		}
		return nil
	}
	if status != "SATISFIABLE" || model == nil {
		return fmt.Errorf("minisat: satisfiable instance reported %q", status)
	}
	for i, cl := range in.clauses {
		sat := false
		for _, l := range cl {
			v, ok := model[abs(l)]
			if ok && v == (l > 0) {
				sat = true
				break
			}
		}
		if !sat {
			return fmt.Errorf("minisat: model violates clause %d", i)
		}
	}
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func checkSIS(in *toolInput, out string) (int, error) {
	const marker = "# resulting network\n"
	i := strings.Index(out, marker)
	if i < 0 {
		return 0, fmt.Errorf("sis: no resulting network in output")
	}
	nw, err := netlist.ParseBLIF(strings.NewReader(out[i+len(marker):]))
	if err != nil {
		return 0, fmt.Errorf("sis: resulting network: %w", err)
	}
	eq, err := netlist.EquivalentBDD(in.source, nw)
	if err != nil {
		return 0, fmt.Errorf("sis: equivalence check: %w", err)
	}
	if !eq {
		return 0, fmt.Errorf("sis: resulting network is not equivalent to its input")
	}
	return nw.Literals(), nil
}

func checkAxb(in *toolInput, out string) error {
	x := make([]float64, len(in.b))
	seen := 0
	for _, line := range strings.Split(out, "\n") {
		var i int
		var v float64
		if n, _ := fmt.Sscanf(line, "x%d = %g", &i, &v); n != 2 {
			continue
		}
		if i < 1 || i > len(x) {
			return fmt.Errorf("axb: unknown variable x%d", i)
		}
		x[i-1] = v
		seen++
	}
	if seen != len(x) {
		return fmt.Errorf("axb: %d of %d values in output", seen, len(x))
	}
	var r2, b2 float64
	for i, row := range in.a {
		s := -in.b[i]
		for j, a := range row {
			s += a * x[j]
		}
		r2 += s * s
		b2 += in.b[i] * in.b[i]
	}
	if rel := math.Sqrt(r2 / math.Max(b2, 1e-300)); !(rel < 1e-6) {
		return fmt.Errorf("axb: relative residual %g", rel)
	}
	return nil
}
