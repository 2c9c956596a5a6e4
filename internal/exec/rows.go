package exec

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"blossomtree/internal/core"
	"blossomtree/internal/flwor"
	"blossomtree/internal/gov"
	"blossomtree/internal/naveval"
	"blossomtree/internal/plan"
	"blossomtree/internal/xmltree"
	"blossomtree/internal/xpath"
)

// tail is what a compiled FLWOR's rows read from its plan, decided once
// per compile: the returning-tree slots each row holds a cell of (its
// columns), the variables among them, and the column of every return
// and order-by path whose cell is exactly the path's node set
// (core.Query.Cells).
type tail struct {
	f       *flwor.FLWOR
	expr    flwor.Expr          // the compiled source: its *xpath.Path values key paths
	slots   []*core.ReturnNode  // column k holds slot slots[k]
	vars    []varCol            // every variable's column
	forCols []int               // the for-variables' columns, in clause order
	paths   map[*xpath.Path]int // exact paths → column
	missing string              // a variable with no returning node, if any
	pos     string              // the positional variable, "" when there is none
}

// varCol is a variable's column.
type varCol struct {
	name string
	col  int
}

// newTail lays out the rows of a compiled FLWOR.
func newTail(q *core.Query) (*tail, error) {
	f, err := topFLWOR(q.Source)
	if err != nil {
		return nil, err
	}
	t := &tail{f: f, expr: q.Source, paths: make(map[*xpath.Path]int, len(q.Cells)), pos: q.Pos}
	cols := make(map[*core.ReturnNode]int)
	col := func(rn *core.ReturnNode) int {
		k, ok := cols[rn]
		if !ok {
			k = len(t.slots)
			cols[rn] = k
			t.slots = append(t.slots, rn)
		}
		return k
	}
	byName := make(map[string]int, len(q.Vars))
	for name := range q.Vars {
		rn, ok := q.Return.ByVar(name)
		if !ok {
			t.missing = name
			continue
		}
		byName[name] = col(rn)
		t.vars = append(t.vars, varCol{name, byName[name]})
	}
	for _, cl := range f.Clauses {
		if k, ok := byName[cl.Var]; ok && cl.Kind == flwor.ForClause {
			t.forCols = append(t.forCols, k)
		}
	}
	for p, rn := range q.Cells {
		t.paths[p] = col(rn)
	}
	return t, nil
}

// rowSet is a FLWOR's iterations, as the return clause reads them. A
// planned row is one instance of the plan: a cell per column of its
// tail, each a run of the node buffer all cells share, holding the
// slot's matches in document order without repeats. Envs are built
// from the variables' cells only for what navigates (residual
// where-conditions, paths without an exact cell) or asks for them.
// Navigational rows are the navigational evaluator's Envs, with no
// cells.
type rowSet struct {
	t     *tail // nil for navigational rows
	cells []span
	nodes []*xmltree.Node
	has   []bool        // per column: whether the instances carry its slot
	n     int           // instances
	order []int32       // the rows, as instance numbers in iteration order
	ord   []int32       // per instance: its ordinal, when the tail has a positional variable
	envs  []naveval.Env // per instance: built on demand, or given
	// envOnce builds every row's Env once the rows are final, so that
	// rowEnvs, which any goroutine may call, only reads envs.
	envOnce sync.Once
}

// span is a cell: nodes[lo:hi].
type span struct{ lo, hi int32 }

// envRows wraps navigational (or gathered) rows.
func envRows(envs []naveval.Env) *rowSet {
	rs := &rowSet{envs: envs, n: len(envs), order: make([]int32, len(envs))}
	for i := range rs.order {
		rs.order[i] = int32(i)
	}
	return rs
}

// rows materializes one row per instance, in the plan's order. A
// TwigStack row carries its variables' columns only.
func (t *tail) rows(ins *plan.Instances) (*rowSet, error) {
	n, w := ins.Len(), len(t.slots)
	if t.missing != "" && n > 0 {
		return nil, fmt.Errorf("exec: no returning node for variable $%s", t.missing)
	}
	rs := &rowSet{t: t, cells: make([]span, n*w), has: make([]bool, w), n: n, order: make([]int32, n),
		nodes: make([]*xmltree.Node, 0, n*w)}
	twigCol := make([]int, w)
	for k, rn := range t.slots {
		twigCol[k] = slices.Index(ins.Cols, rn.Vertex)
		rs.has[k] = ins.Lists != nil || twigCol[k] >= 0
	}
	visit := func(nd *xmltree.Node) bool {
		rs.nodes = append(rs.nodes, nd)
		return true
	}
	for i := 0; i < n; i++ {
		rs.order[i] = int32(i)
		for k, rn := range t.slots {
			lo := len(rs.nodes)
			switch {
			case ins.Lists != nil:
				ins.Lists[i].VisitSlot(rn.Slot, visit)
				rs.nodes = distinctFrom(rs.nodes, lo)
			case twigCol[k] >= 0:
				rs.nodes = append(rs.nodes, ins.Rows[i][twigCol[k]])
			}
			rs.cells[i*w+k] = span{int32(lo), int32(len(rs.nodes))}
		}
	}
	return rs, nil
}

// distinctFrom puts ns[lo:] in document order without repeats, sorting
// only when it is not strictly increasing already.
func distinctFrom(ns []*xmltree.Node, lo int) []*xmltree.Node {
	run := ns[lo:]
	for i := 1; i < len(run); i++ {
		if run[i].Start <= run[i-1].Start {
			slices.SortFunc(run, func(a, b *xmltree.Node) int { return a.Start - b.Start })
			return ns[:lo+len(slices.Compact(run))]
		}
	}
	return ns
}

// cell returns the nodes of instance inst's column k.
func (rs *rowSet) cell(inst, k int) []*xmltree.Node {
	c := rs.cells[inst*len(rs.t.slots)+k]
	if c.lo == c.hi {
		return nil
	}
	return rs.nodes[c.lo:c.hi:c.hi]
}

// first returns the document position of the first node of instance
// inst's column k, -1 when the cell is empty.
func (rs *rowSet) first(inst int32, k int) int {
	if c := rs.cell(int(inst), k); len(c) > 0 {
		return c[0].Start
	}
	return -1
}

// env returns instance inst's variable bindings.
func (rs *rowSet) env(inst int) naveval.Env {
	if rs.t == nil {
		return rs.envs[inst]
	}
	if rs.envs == nil {
		rs.envs = make([]naveval.Env, rs.n)
	}
	if rs.envs[inst] == nil {
		env := make(naveval.Env, len(rs.t.vars))
		for _, v := range rs.t.vars {
			env[v.name] = rs.cell(inst, v.col)
		}
		if rs.t.pos != "" {
			// As the navigational evaluator binds it: a detached text
			// node holding the ordinal.
			env[rs.t.pos] = []*xmltree.Node{{Kind: xmltree.TextNode, Text: strconv.Itoa(int(rs.ord[inst]))}}
		}
		rs.envs[inst] = env
	}
	return rs.envs[inst]
}

// rowEnvs returns the rows' bindings, in row order.
func (rs *rowSet) rowEnvs() []naveval.Env {
	rs.envOnce.Do(func() {
		for _, inst := range rs.order {
			rs.env(int(inst))
		}
	})
	out := make([]naveval.Env, len(rs.order))
	for i, inst := range rs.order {
		out[i] = rs.envs[inst]
	}
	return out
}

// filter keeps the rows every residual where-condition holds on.
func (rs *rowSet) filter(conds []xpath.Expr, resolve naveval.Resolver, g *gov.Governor) error {
	kept := rs.order[:0]
	for _, inst := range rs.order {
		ok := true
		for _, c := range conds {
			v, err := naveval.EvalCond(resolve, rs.env(int(inst)), c, g)
			if err != nil {
				return err
			}
			if !v {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, inst)
		}
	}
	rs.order = kept
	return nil
}

// iterate puts the rows in FLWOR iteration order — clause-major document
// order of the for-variables — and keeps one row per for-variable
// combination: operators that enumerate existential witnesses (per-pair
// joins over predicate subtrees) may emit one iteration several times.
// The plan mostly delivers that order already; the rows are sorted
// only when it did not. The sort is stable, so the row kept is the
// plan's first. Planned rows come from one document, so a node's
// position identifies it.
func (rs *rowSet) iterate() {
	cmp := func(a, b int32) int {
		for _, k := range rs.t.forCols {
			if d := rs.first(a, k) - rs.first(b, k); d != 0 {
				return d
			}
		}
		return 0
	}
	if !slices.IsSortedFunc(rs.order, cmp) {
		slices.SortStableFunc(rs.order, cmp)
	}
	rs.order = slices.CompactFunc(rs.order, func(a, b int32) bool { return cmp(a, b) == 0 })
}

// number keeps the first limit rows of iteration order and gives each
// its ordinal, the value the positional variable binds: XQuery numbers
// the for-clause's bindings before the where-clause filters them.
func (rs *rowSet) number(limit int) {
	if len(rs.order) > limit {
		rs.order = rs.order[:max(limit, 0)]
	}
	rs.ord = make([]int32, rs.n)
	for k, inst := range rs.order {
		rs.ord[inst] = int32(k + 1)
	}
}

// orderBy sorts the rows by the order-by path's first node.
func (rs *rowSet) orderBy(f *flwor.FLWOR, resolve naveval.Resolver, g *gov.Governor) error {
	keys := make([]string, len(rs.order))
	for i, inst := range rs.order {
		ns, err := rs.path(int(inst), f.OrderBy, resolve, g)
		if err != nil {
			return err
		}
		if len(ns) > 0 {
			keys[i] = xmltree.StringValue(ns[0])
		}
	}
	rs.order = naveval.SortByKeys(rs.order, keys, f.OrderDesc)
	return nil
}

// path returns the nodes p selects in instance inst: its exact cell when
// the instances carry it, with a trailing text() or attribute step
// re-applied, and otherwise p navigated from the instance's bindings.
func (rs *rowSet) path(inst int, p *xpath.Path, resolve naveval.Resolver, g *gov.Governor) ([]*xmltree.Node, error) {
	if rs.t != nil {
		if k, ok := rs.t.paths[p]; ok && rs.has[k] {
			return stepTail(rs.cell(inst, k), p), nil
		}
	}
	return naveval.EvalPath(resolve, rs.env(inst), p, g)
}

// stepTail applies p's trailing text() or attribute step, if any, to the
// nodes of p's endpoint: their text children or descendants, or those
// carrying the attribute.
func stepTail(ns []*xmltree.Node, p *xpath.Path) []*xmltree.Node {
	if len(p.Steps) == 0 || len(ns) == 0 {
		return ns
	}
	switch last := p.Steps[len(p.Steps)-1]; {
	case last.TextTest:
		return textNodes(ns, last)
	case last.Axis == xpath.Attribute:
		var out []*xmltree.Node
		for _, n := range ns {
			if _, ok := n.Attr(last.Test); ok {
				out = append(out, n)
			}
		}
		return out
	}
	return ns
}

// textNodes applies a text() step to distinct elements in document
// order: their text children (child axis) or text descendants, distinct
// and in document order.
func textNodes(ns []*xmltree.Node, step xpath.Step) []*xmltree.Node {
	texts := xmltree.TextChildren
	if step.Axis == xpath.Descendant {
		texts = xmltree.TextDescendants
	}
	var out []*xmltree.Node
	for _, n := range ns {
		out = append(out, texts(n)...)
	}
	return distinctFrom(out, 0)
}
