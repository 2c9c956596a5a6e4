package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"blossomtree"
)

// gridStrategies are the systems of the forced-strategy grid, in Table 3
// order plus VEC and the cost-based optimizer, with the public option that
// forces each.
var gridStrategies = []struct {
	name   string
	option blossomtree.Strategy
}{
	{"XH", blossomtree.StrategyNavigational},
	{"TS", blossomtree.StrategyTwigStack},
	{"PL", blossomtree.StrategyPipelined},
	{"NL", blossomtree.StrategyBoundedNL},
	{"VEC", blossomtree.StrategyVectorized},
	{"COST", blossomtree.StrategyCostBased},
}

// gridCell is one (strategy, query) measurement of the Table 3 grid.
type gridCell struct {
	Strategy string  `json:"strategy"`
	Class    string  `json:"class"`
	MS       float64 `json:"ms,omitempty"`
	DNF      bool    `json:"dnf,omitempty"`
}

// gridRepeats timed executions per cell, after one that compiles the plan.
const gridRepeats = 3

// gridApplicable follows Table 3: the pipelined join is sound only on
// non-recursive documents and the paper reports the bounded nested loop on
// the recursive ones, where it stands in for it.
func gridApplicable(strategy string, recursive bool) bool {
	switch strategy {
	case "PL":
		return !recursive
	case "NL":
		return recursive
	}
	return true
}

// strategyGrid runs every paper query of the workload under every
// applicable forced strategy. It is a layer metric: it moves an end-to-end
// number only where Auto picks that strategy. A cell that exceeds the
// governor timeout reports DNF; the timeout shrinks with the corpus (2 s
// at a tenth of the paper's size) so that the grid's worst case stays
// inside the run's time cap.
func (s *embedded) strategyGrid(res *runResult) {
	timeout := time.Duration(20 * s.cfg.Scale * float64(time.Second))
	if timeout < 50*time.Millisecond {
		timeout = 50 * time.Millisecond
	}
	recursive := map[string]bool{}
	for _, d := range s.w.Docs {
		st, _ := s.eng.Stats(d.URI)
		recursive[d.URI] = st.Recursive
	}
	var cells []gridCell
	for _, g := range gridStrategies {
		name := g.name
		opts := blossomtree.Options{Strategy: g.option, Budget: blossomtree.Budget{Timeout: timeout}}
		var ms []float64
		dnf := 0
	queries:
		for i := range s.w.Ops {
			o := &s.w.Ops[i]
			if !gridApplicable(name, recursive[o.Doc]) {
				continue
			}
			cell := gridCell{Strategy: name, Class: s.w.Classes[o.Class]}
			var reps []float64
			for r := 0; r <= gridRepeats; r++ {
				t0 := time.Now()
				got, err := s.eng.QueryWith(o.Query, opts)
				d := time.Since(t0)
				res.Attempted++
				if errors.Is(err, blossomtree.ErrBudgetExceeded) {
					cell.DNF = true
					dnf++
					cells = append(cells, cell)
					continue queries
				}
				if err != nil || got.Len() != o.Count {
					res.Failed++
					s.cfg.logf("%s: grid %s %s: wrong answer or error: %v", s.w.Name, name, o.Query, err)
					continue queries
				}
				if r > 0 {
					reps = append(reps, float64(d)/1e6)
				}
			}
			cell.MS = median(reps)
			ms = append(ms, cell.MS)
			cells = append(cells, cell)
		}
		res.set("strategy."+name+".geomean_ms", geomean(ms))
		res.set("strategy."+name+".dnf", float64(dnf))
	}
	res.Grid = cells
	table := formatGrid(s.w, cells, timeout)
	s.cfg.logf("%s", table)
	path := filepath.Join(s.cfg.Root, "benchmark", "out", s.w.Name+".grid.txt")
	if err := os.WriteFile(path, []byte(table), 0o644); err != nil {
		s.cfg.logf("%s: %v", s.w.Name, err)
	}
}

// formatGrid renders the grid as Table 3 does: one row per strategy, one
// column per query, milliseconds or DNF.
func formatGrid(w *workload, cells []gridCell, timeout time.Duration) string {
	byKey := map[string]gridCell{}
	for _, c := range cells {
		byKey[c.Strategy+" "+c.Class] = c
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "forced-strategy grid, workload %s (median of %d warm runs, ms; DNF = over the %v cell timeout; - = not applicable)\n",
		w.Name, gridRepeats, timeout)
	fmt.Fprintf(&sb, "%-5s", "sys")
	for _, c := range w.Classes {
		fmt.Fprintf(&sb, " %9s", c)
	}
	sb.WriteByte('\n')
	for _, g := range gridStrategies {
		fmt.Fprintf(&sb, "%-5s", g.name)
		for _, c := range w.Classes {
			cell, ok := byKey[g.name+" "+c]
			switch {
			case !ok:
				fmt.Fprintf(&sb, " %9s", "-")
			case cell.DNF:
				fmt.Fprintf(&sb, " %9s", "DNF")
			default:
				fmt.Fprintf(&sb, " %9.3f", cell.MS)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
