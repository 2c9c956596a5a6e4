// Package naveval is a straightforward navigational evaluator for the
// query fragment: path expressions are evaluated by recursive tree
// traversal with no decomposition, no labeling shortcuts and no tag
// indexes, and FLWOR expressions follow their iteration semantics
// literally, re-evaluating every correlated path expression inside the
// for-loops — exactly the "straightforward approach" the paper's
// introduction warns is inefficient.
//
// It plays two roles in this repository:
//
//   - the stand-in for the proprietary X-Hive/DB system ("XH") in the
//     Table 3 experiments — an industry-style navigational engine the
//     algebraic operators are compared against; and
//   - the correctness oracle: property tests check the NoK matcher, the
//     structural joins and the executor against its results.
//
// Evaluation is governed like the algebraic operators: the *Gov entry
// points thread a gov.Governor through every step evaluation, charging
// axis candidates against the query's node budget and polling
// cancellation, so a runaway navigational query aborts with the same
// typed errors the planned executor returns.
package naveval

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"blossomtree/internal/fault"
	"blossomtree/internal/flwor"
	"blossomtree/internal/gov"
	"blossomtree/internal/xmltree"
	"blossomtree/internal/xpath"
)

// OrderKeyLess compares order-by keys numerically when both parse as
// numbers ("9" before "10") and lexicographically otherwise, matching
// XQuery's type-aware ordering for the untyped-atomic values this
// fragment produces. Both the navigational evaluator and the planned
// executor order by it, so the two paths agree on result order.
func OrderKeyLess(a, b string) bool {
	fa, errA := strconv.ParseFloat(a, 64)
	fb, errB := strconv.ParseFloat(b, 64)
	if errA == nil && errB == nil {
		return fa < fb
	}
	return a < b
}

// SortByKeys orders envs by their order-by keys (keys[i] is envs[i]'s)
// under OrderKeyLess, ascending or descending, parsing each key once.
// Both evaluators sort with it. The sort is stable, so equal keys keep
// iteration order in either direction. It reorders envs in place and
// returns it.
func SortByKeys(envs []Env, keys []string, desc bool) []Env {
	type keyed struct {
		s   string
		f   float64 // the key's value, when num
		num bool
		env Env
	}
	ks := make([]keyed, len(envs))
	for i, env := range envs {
		f, err := strconv.ParseFloat(keys[i], 64)
		ks[i] = keyed{keys[i], f, err == nil, env}
	}
	// less is OrderKeyLess on parsed keys.
	less := func(a, b *keyed) bool {
		if a.num && b.num {
			return a.f < b.f
		}
		return a.s < b.s
	}
	sort.SliceStable(ks, func(i, j int) bool {
		if desc {
			return less(&ks[j], &ks[i])
		}
		return less(&ks[i], &ks[j])
	})
	for i, k := range ks {
		envs[i] = k.env
	}
	return envs
}

// Resolver maps document URIs to documents. The empty URI resolves
// absolute paths ("/a/b") when a query mixes both forms.
type Resolver func(uri string) (*xmltree.Document, error)

// SingleDoc returns a resolver that serves the same document for every
// URI, the common case of single-document queries.
func SingleDoc(doc *xmltree.Document) Resolver {
	return func(string) (*xmltree.Document, error) { return doc, nil }
}

// Env is one row of variable bindings: each variable holds the node
// sequence it is bound to (singletons for for-variables, full sequences
// for let-variables).
type Env map[string][]*xmltree.Node

// clone copies the environment.
func (e Env) clone() Env {
	out := make(Env, len(e)+1)
	for k, v := range e {
		out[k] = v
	}
	return out
}

// evaluator carries the evaluation context every recursive helper
// needs: the document resolver and the query's governor (nil when
// ungoverned — every governor method is nil-safe).
type evaluator struct {
	resolve Resolver
	gov     *gov.Governor
}

// EvalPath evaluates a path expression with no variable bindings.
func EvalPath(doc *xmltree.Document, p *xpath.Path) ([]*xmltree.Node, error) {
	return EvalPathEnv(SingleDoc(doc), nil, p)
}

// EvalPathEnv evaluates a path expression under variable bindings.
// Results are distinct nodes in document order.
func EvalPathEnv(resolve Resolver, env Env, p *xpath.Path) ([]*xmltree.Node, error) {
	return EvalPathGov(resolve, env, p, nil)
}

// EvalPathGov is EvalPathEnv under a governor: step evaluation charges
// the node budget and polls cancellation.
func EvalPathGov(resolve Resolver, env Env, p *xpath.Path, g *gov.Governor) ([]*xmltree.Node, error) {
	return (&evaluator{resolve: resolve, gov: g}).path(env, p)
}

func (ev *evaluator) path(env Env, p *xpath.Path) ([]*xmltree.Node, error) {
	var ctx []*xmltree.Node
	switch p.Source.Kind {
	case xpath.SourceDoc:
		doc, err := ev.resolve(p.Source.Doc)
		if err != nil {
			return nil, err
		}
		ctx = []*xmltree.Node{doc.Root}
	case xpath.SourceRoot:
		doc, err := ev.resolve("")
		if err != nil {
			return nil, err
		}
		ctx = []*xmltree.Node{doc.Root}
	case xpath.SourceVar:
		nodes, ok := env[p.Source.Var]
		if !ok {
			return nil, fmt.Errorf("naveval: unbound variable $%s", p.Source.Var)
		}
		ctx = nodes
	default:
		return nil, fmt.Errorf("naveval: relative path %s has no context", p)
	}
	// A trailing attribute step selects the elements *having* the
	// attribute: attributes are not nodes in this data model, so @attr in
	// node position is an existence test — the same convention the
	// planner's CAttrExists endpoint constraint implements.
	steps, attr := peelAttr(p.Steps)
	res, err := ev.steps(env, ctx, steps)
	if err != nil || attr == "" {
		return res, err
	}
	var out []*xmltree.Node
	for _, m := range res {
		if _, ok := m.Attr(attr); ok {
			out = append(out, m)
		}
	}
	return out, nil
}

// peelAttr splits a trailing attribute step off a step list, returning
// the remaining steps and the attribute name ("" when the path does not
// end in an attribute step). Every place a path can yield values or an
// existence test shares it, so attribute semantics cannot diverge
// between predicates, operands and top-level paths.
// peelAttr splits a predicate-free trailing attribute step off; an
// attribute step carrying predicates stays in place so step() rejects
// it, matching the planner, which also errors on that shape.
func peelAttr(steps []xpath.Step) ([]xpath.Step, string) {
	if k := len(steps); k > 0 && steps[k-1].Axis == xpath.Attribute && len(steps[k-1].Preds) == 0 {
		return steps[:k-1], steps[k-1].Test
	}
	return steps, ""
}

func (ev *evaluator) steps(env Env, ctx []*xmltree.Node, steps []xpath.Step) ([]*xmltree.Node, error) {
	cur := ctx
	for _, st := range steps {
		var next []*xmltree.Node
		seen := make(map[*xmltree.Node]bool)
		for _, c := range cur {
			sel, err := ev.step(env, c, st)
			if err != nil {
				return nil, err
			}
			for _, n := range sel {
				if !seen[n] {
					seen[n] = true
					next = append(next, n)
				}
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i].Start < next[j].Start })
		cur = next
	}
	return cur, nil
}

// step selects the step's axis candidates from one context node and
// filters them through the predicates with correct position() semantics
// (1-based within this context node's candidate list).
func (ev *evaluator) step(env Env, ctx *xmltree.Node, st xpath.Step) ([]*xmltree.Node, error) {
	var cands []*xmltree.Node
	switch st.Axis {
	case xpath.Child:
		if st.TextTest {
			cands = xmltree.TextChildren(ctx)
			break
		}
		for c := ctx.FirstChild; c != nil; c = c.NextSibling {
			if c.Kind == xmltree.ElementNode && st.Matches(c.Tag) {
				cands = append(cands, c)
			}
		}
	case xpath.Descendant:
		if st.TextTest {
			cands = xmltree.TextDescendants(ctx)
			break
		}
		cands = xmltree.Descendants(ctx, "")
		if st.Test != "*" {
			k := cands[:0]
			for _, n := range cands {
				if n.Tag == st.Test {
					k = append(k, n)
				}
			}
			cands = k
		}
	case xpath.Self:
		if ctx.Kind == xmltree.ElementNode || ctx.Kind == xmltree.DocumentNode {
			cands = []*xmltree.Node{ctx}
		}
	case xpath.FollowingSibling:
		for s := ctx.NextSibling; s != nil; s = s.NextSibling {
			if s.Kind == xmltree.ElementNode && st.Matches(s.Tag) {
				cands = append(cands, s)
			}
		}
	case xpath.Parent:
		if p := ctx.Parent; p != nil && p.Kind == xmltree.ElementNode && st.Matches(p.Tag) {
			cands = []*xmltree.Node{p}
		}
	case xpath.Ancestor:
		for _, a := range xmltree.Ancestors(ctx) {
			if st.Matches(a.Tag) {
				cands = append(cands, a)
			}
		}
	case xpath.Attribute:
		return nil, fmt.Errorf("naveval: attribute nodes cannot be returned (step @%s)", st.Test)
	default:
		return nil, fmt.Errorf("naveval: unsupported axis %s (supported axes: %s)", st.Axis.Name(), xpath.SupportedAxes())
	}
	// Each per-context-node step is one governance point: the axis
	// candidates charge the node budget, and the hit doubles as the
	// navigational fault site.
	if err := ev.gov.Scanned(fault.SiteNavStep, int64(len(cands))); err != nil {
		return nil, err
	}
	for _, pred := range st.Preds {
		var kept []*xmltree.Node
		for i, n := range cands {
			ok, err := ev.pred(env, n, i+1, pred)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, n)
			}
		}
		cands = kept
	}
	return cands, nil
}

func (ev *evaluator) pred(env Env, n *xmltree.Node, pos int, e xpath.Expr) (bool, error) {
	switch t := e.(type) {
	case xpath.Exists:
		res, err := ev.relative(env, n, t.Path)
		if err != nil {
			return false, err
		}
		return len(res) > 0, nil
	case xpath.Position:
		return pos == t.N, nil
	case xpath.And:
		l, err := ev.pred(env, n, pos, t.L)
		if err != nil || !l {
			return false, err
		}
		return ev.pred(env, n, pos, t.R)
	case xpath.Or:
		l, err := ev.pred(env, n, pos, t.L)
		if err != nil || l {
			return l, err
		}
		return ev.pred(env, n, pos, t.R)
	case xpath.Not:
		v, err := ev.pred(env, n, pos, t.E)
		return !v, err
	case *xpath.FuncCall:
		return ev.funcBool(env, n, t)
	case xpath.Compare:
		lv, err := ev.operandValues(env, n, t.Left)
		if err != nil {
			return false, err
		}
		rv, err := ev.operandValues(env, n, t.Right)
		if err != nil {
			return false, err
		}
		for _, l := range lv {
			for _, r := range rv {
				if t.Op.Eval(l, r) {
					return true, nil
				}
			}
		}
		return false, nil
	default:
		return false, fmt.Errorf("naveval: unsupported predicate %T", e)
	}
}

// relative evaluates a relative path from a context node, handling
// trailing attribute steps as attribute existence.
func (ev *evaluator) relative(env Env, n *xmltree.Node, p *xpath.Path) ([]*xmltree.Node, error) {
	steps, attr := peelAttr(p.Steps)
	res, err := ev.steps(env, []*xmltree.Node{n}, steps)
	if err != nil {
		return nil, err
	}
	if attr == "" {
		return res, nil
	}
	var out []*xmltree.Node
	for _, m := range res {
		if _, ok := m.Attr(attr); ok {
			out = append(out, m)
		}
	}
	return out, nil
}

// operandValues produces the comparison value list of an operand:
// literals are singletons; paths yield the string-values of their result
// nodes (attribute steps yield attribute values).
func (ev *evaluator) operandValues(env Env, n *xmltree.Node, o xpath.Operand) ([]string, error) {
	switch o.Kind {
	case xpath.OperandString:
		return []string{o.Str}, nil
	case xpath.OperandNumber:
		return []string{trimFloat(o.Num)}, nil
	case xpath.OperandFunc:
		v, err := ev.funcValue(env, n, o.Fn)
		if err != nil {
			return nil, err
		}
		return []string{v}, nil
	}
	nodes, attr, err := ev.operandNodes(env, n, o.Path)
	if err != nil {
		return nil, err
	}
	return nodeValues(nodes, attr), nil
}

// operandNodes resolves a path operand to its result nodes plus the
// trailing attribute name when the path ends in an attribute step: the
// nodes are then the elements carrying the attribute. A nil context node
// restricts the operand to anchored paths ($var, doc(), absolute), the
// where-condition case.
func (ev *evaluator) operandNodes(env Env, n *xmltree.Node, p *xpath.Path) ([]*xmltree.Node, string, error) {
	steps, attr := peelAttr(p.Steps)
	var nodes []*xmltree.Node
	var err error
	if p.Source.Kind == xpath.SourceContext {
		if n == nil {
			return nil, "", fmt.Errorf("naveval: relative path %s has no context", p)
		}
		nodes, err = ev.steps(env, []*xmltree.Node{n}, steps)
	} else {
		nodes, err = ev.path(env, &xpath.Path{Source: p.Source, Steps: steps})
	}
	if err != nil {
		return nil, "", err
	}
	if attr != "" {
		// Never compact in place: for a bare variable operand like
		// $l/@attr, path() returns the environment's own binding slice,
		// and an in-place filter would scribble over the stored binding.
		kept := make([]*xmltree.Node, 0, len(nodes))
		for _, m := range nodes {
			if _, ok := m.Attr(attr); ok {
				kept = append(kept, m)
			}
		}
		nodes = kept
	}
	return nodes, attr, nil
}

// nodeValues produces the comparison values of resolved operand nodes:
// attribute values when the operand path ended in an attribute step,
// string-values otherwise.
func nodeValues(nodes []*xmltree.Node, attr string) []string {
	out := make([]string, 0, len(nodes))
	for _, m := range nodes {
		if attr != "" {
			if v, ok := m.Attr(attr); ok {
				out = append(out, v)
			}
			continue
		}
		out = append(out, xmltree.StringValue(m))
	}
	return out
}

func trimFloat(f float64) string {
	s := fmt.Sprintf("%g", f)
	return s
}

func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}

// stringArg evaluates a function argument to a single string following
// XPath 1.0's string() conversion: the string-value of the first result
// node ("" for an empty sequence), or the literal itself.
func (ev *evaluator) stringArg(env Env, n *xmltree.Node, o xpath.Operand) (string, error) {
	vals, err := ev.operandValues(env, n, o)
	if err != nil {
		return "", err
	}
	if len(vals) == 0 {
		return "", nil
	}
	return vals[0], nil
}

// seqArg evaluates a function argument that must be a node sequence
// (count, sum, string-join), returning the result nodes and the trailing
// attribute name when the argument path ended in an attribute step.
func (ev *evaluator) seqArg(env Env, n *xmltree.Node, o xpath.Operand, fn string) ([]*xmltree.Node, string, error) {
	if o.Kind != xpath.OperandPath {
		return nil, "", fmt.Errorf("naveval: %s() requires a path argument", fn)
	}
	return ev.operandNodes(env, n, o.Path)
}

// funcValue evaluates a core library function call to its string value.
// Boolean functions yield "true"/"false"; numeric functions format via
// the same %g rendering comparisons use, with "NaN" for non-numeric
// input, so function results compose with CmpOp.Eval's numeric rules.
func (ev *evaluator) funcValue(env Env, n *xmltree.Node, f *xpath.FuncCall) (string, error) {
	switch f.Name {
	case "contains", "starts-with":
		a, err := ev.stringArg(env, n, f.Args[0])
		if err != nil {
			return "", err
		}
		b, err := ev.stringArg(env, n, f.Args[1])
		if err != nil {
			return "", err
		}
		if f.Name == "contains" {
			return boolStr(strings.Contains(a, b)), nil
		}
		return boolStr(strings.HasPrefix(a, b)), nil
	case "count":
		nodes, _, err := ev.seqArg(env, n, f.Args[0], f.Name)
		if err != nil {
			return "", err
		}
		return strconv.Itoa(len(nodes)), nil
	case "sum":
		nodes, attr, err := ev.seqArg(env, n, f.Args[0], f.Name)
		if err != nil {
			return "", err
		}
		total := 0.0
		for _, v := range nodeValues(nodes, attr) {
			fv, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				return "NaN", nil
			}
			total += fv
		}
		return trimFloat(total), nil
	case "string-join":
		nodes, attr, err := ev.seqArg(env, n, f.Args[0], f.Name)
		if err != nil {
			return "", err
		}
		sep := ""
		if len(f.Args) == 2 {
			if sep, err = ev.stringArg(env, n, f.Args[1]); err != nil {
				return "", err
			}
		}
		return strings.Join(nodeValues(nodes, attr), sep), nil
	case "number":
		var s string
		var err error
		if len(f.Args) == 0 {
			if n == nil {
				return "", fmt.Errorf("naveval: number() needs a context node")
			}
			s = xmltree.StringValue(n)
		} else if s, err = ev.stringArg(env, n, f.Args[0]); err != nil {
			return "", err
		}
		fv, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return "NaN", nil
		}
		return trimFloat(fv), nil
	case "name":
		if len(f.Args) == 0 {
			if n == nil {
				return "", fmt.Errorf("naveval: name() needs a context node")
			}
			return n.Tag, nil
		}
		nodes, attr, err := ev.seqArg(env, n, f.Args[0], f.Name)
		if err != nil {
			return "", err
		}
		if len(nodes) == 0 {
			return "", nil
		}
		if attr != "" {
			// The name of an attribute node is the attribute name.
			return attr, nil
		}
		return nodes[0].Tag, nil
	default:
		return "", fmt.Errorf("naveval: unknown function %s()", f.Name)
	}
}

// funcBool is the effective boolean value of a function call: booleans
// directly, numbers ≠ 0 (NaN is false), strings ≠ "".
func (ev *evaluator) funcBool(env Env, n *xmltree.Node, f *xpath.FuncCall) (bool, error) {
	v, err := ev.funcValue(env, n, f)
	if err != nil {
		return false, err
	}
	switch f.Name {
	case "contains", "starts-with":
		return v == "true", nil
	case "count", "sum", "number":
		fv, err := strconv.ParseFloat(v, 64)
		if err != nil || math.IsNaN(fv) {
			return false, nil
		}
		return fv != 0, nil
	default: // string-join, name
		return v != "", nil
	}
}

// EvalCond evaluates a where-clause condition under an environment (used
// by the FLWOR loop here and for residual conditions by the executor).
func EvalCond(resolve Resolver, env Env, c flwor.Cond) (bool, error) {
	return EvalCondGov(resolve, env, c, nil)
}

// EvalCondGov is EvalCond under a governor.
func EvalCondGov(resolve Resolver, env Env, c flwor.Cond, g *gov.Governor) (bool, error) {
	return (&evaluator{resolve: resolve, gov: g}).cond(env, c)
}

func (ev *evaluator) cond(env Env, c flwor.Cond) (bool, error) {
	switch t := c.(type) {
	case flwor.CondAnd:
		l, err := ev.cond(env, t.L)
		if err != nil || !l {
			return false, err
		}
		return ev.cond(env, t.R)
	case flwor.CondOr:
		l, err := ev.cond(env, t.L)
		if err != nil || l {
			return l, err
		}
		return ev.cond(env, t.R)
	case flwor.CondNot:
		v, err := ev.cond(env, t.C)
		return !v, err
	case flwor.CondBool:
		return ev.funcBool(env, nil, t.Fn)
	case flwor.CondExists:
		res, err := ev.path(env, t.Path)
		if err != nil {
			return false, err
		}
		return len(res) > 0, nil
	case flwor.CondDocOrder:
		l, err := ev.path(env, t.Left)
		if err != nil {
			return false, err
		}
		r, err := ev.path(env, t.Right)
		if err != nil {
			return false, err
		}
		for _, a := range l {
			for _, b := range r {
				if a != b && (t.Before && a.Before(b) || !t.Before && b.Before(a)) {
					return true, nil
				}
			}
		}
		return false, nil
	case flwor.CondDeepEqual:
		l, err := ev.path(env, t.Left)
		if err != nil {
			return false, err
		}
		r, err := ev.path(env, t.Right)
		if err != nil {
			return false, err
		}
		return xmltree.DeepEqualSeq(l, r), nil
	case flwor.CondCmp:
		lv, err := ev.condOperandValues(env, t.Left)
		if err != nil {
			return false, err
		}
		rv, err := ev.condOperandValues(env, t.Right)
		if err != nil {
			return false, err
		}
		for _, a := range lv {
			for _, b := range rv {
				if t.Op.Eval(a, b) {
					return true, nil
				}
			}
		}
		return false, nil
	default:
		return false, fmt.Errorf("naveval: unsupported condition %T", c)
	}
}

// condOperandValues is operandValues without a context node: operand
// paths in where-conditions must be anchored at a variable, doc() or the
// root. Attribute-ending paths compare attribute values, exactly as in
// predicate operands.
func (ev *evaluator) condOperandValues(env Env, o xpath.Operand) ([]string, error) {
	return ev.operandValues(env, nil, o)
}

// EvalFLWOR runs the FLWOR iteration semantics naively: the nested-loop
// evaluation of §1's "straightforward approach". It returns one Env per
// surviving iteration, in iteration (document) order, after applying
// where and order by.
func EvalFLWOR(resolve Resolver, f *flwor.FLWOR) ([]Env, error) {
	return EvalFLWORGov(resolve, f, nil)
}

// EvalFLWORGov is EvalFLWOR under a governor: every correlated path
// re-evaluation inside the nested loops is governed, so cancellation
// and budgets abort the iteration mid-flight.
func EvalFLWORGov(resolve Resolver, f *flwor.FLWOR, g *gov.Governor) ([]Env, error) {
	ev := &evaluator{resolve: resolve, gov: g}
	envs := []Env{{}}
	for _, cl := range f.Clauses {
		var next []Env
		for _, env := range envs {
			if err := ev.gov.Poll(); err != nil {
				return nil, err
			}
			res, err := ev.path(env, cl.Path)
			if err != nil {
				return nil, err
			}
			if cl.Kind == flwor.LetClause {
				e2 := env.clone()
				e2[cl.Var] = res
				next = append(next, e2)
				continue
			}
			for i, n := range res {
				e2 := env.clone()
				e2[cl.Var] = []*xmltree.Node{n}
				if cl.PosVar != "" {
					// The positional variable binds a detached text node
					// holding the 1-based index: it behaves as a value
					// (comparisons, order by, constructor content) without
					// widening the Env value type.
					e2[cl.PosVar] = []*xmltree.Node{{Kind: xmltree.TextNode, Text: strconv.Itoa(i + 1)}}
				}
				next = append(next, e2)
			}
		}
		envs = next
	}
	if f.Where != nil {
		var kept []Env
		for _, env := range envs {
			if err := ev.gov.Poll(); err != nil {
				return nil, err
			}
			ok, err := ev.cond(env, f.Where)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, env)
			}
		}
		envs = kept
	}
	if f.OrderBy != nil {
		keys := make([]string, len(envs))
		for i, env := range envs {
			res, err := ev.path(env, f.OrderBy)
			if err != nil {
				return nil, err
			}
			if len(res) > 0 {
				keys[i] = xmltree.StringValue(res[0])
			}
		}
		envs = SortByKeys(envs, keys, f.OrderDesc)
	}
	return envs, nil
}
