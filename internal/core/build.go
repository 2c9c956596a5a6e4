package core

import (
	"fmt"
	"math"
	"strconv"

	"blossomtree/internal/flwor"
	"blossomtree/internal/xpath"
)

// Query is a compiled query: the BlossomTree capturing everything the
// formalism can express, plus the residual where-conditions that fall
// outside the conjunctive fragment (disjunctions, negated existence over
// literals) and are applied by the executor as post-join selections.
type Query struct {
	Tree     *BlossomTree
	Return   *ReturnTree
	Residual []xpath.Expr
	// Vars maps variable names to their vertices.
	Vars map[string]*Vertex
	// Cells maps each return- and order-by path of Source whose nodes an
	// instance holds exactly to its endpoint's returning node (see
	// exactCell). The executor reads such a path from the endpoint's
	// slot; any other path is navigated from its row's bindings.
	Cells map[*xpath.Path]*ReturnNode
	// Source is the parsed query this was compiled from.
	Source flwor.Expr
	// Pos is the for-clause's positional variable (for $x at $i), "" when
	// the query has none. It binds each row's ordinal in the for-clause's
	// binding sequence, which the where-clause filters only afterwards.
	Pos string
	// Limit is, when Pos is set, the largest ordinal a row can carry and
	// still pass the where-clause: NoLimit when no conjunct bounds Pos,
	// 0 or less when no row can pass.
	Limit int
}

// NoLimit is Query.Limit when the where-clause does not bound the
// positional variable.
const NoLimit = math.MaxInt

// RowLimit returns the largest ordinal a row can pass with, and whether
// the where-clause bounds the positional variable at all.
func (q *Query) RowLimit() (int, bool) {
	return q.Limit, q.Pos != "" && q.Limit != NoLimit
}

type builder struct {
	bt   *BlossomTree
	vars map[string]*Vertex
	// lets maps each let variable to its (already inlined) defining
	// path, so later paths anchored at the variable can be rewritten to
	// start from the definition's own anchor — see inlineLets.
	lets map[string]*xpath.Path
	// ends maps each return- and order-by path to its endpoint vertex.
	ends map[*xpath.Path]*Vertex
	// pos is the positional variable, "" when there is none. A path
	// starting at it reads a row's ordinal, which no vertex matches.
	pos string
	// crossed is non-nil while the where-clause compiles, and holds the
	// vertices a crossing's paths read, below their anchors: a
	// where-conjunct may not narrow them (see reuseChild).
	crossed map[*Vertex]bool
}

// FromPath compiles a bare path expression into a single-pattern-tree
// BlossomTree whose returning node is the path's endpoint, bound to the
// pseudo-variable "result".
func FromPath(p *xpath.Path) (*Query, error) {
	b := &builder{bt: NewBlossomTree(), vars: map[string]*Vertex{}}
	end, err := b.pathEndpoint(p, Mandatory, false)
	if err != nil {
		return nil, err
	}
	if end.IsDocRoot() {
		return nil, fmt.Errorf("core: path %s returns the document node", p)
	}
	end.Returning = true
	end.ForBound = true
	if end.Blossom == "" {
		end.Blossom = "result"
	}
	b.vars["result"] = end
	q := &Query{Tree: b.bt, Vars: b.vars, Source: &flwor.PathExpr{Path: p}}
	q.Return = b.bt.Finalize()
	return q, nil
}

// FromFLWOR compiles a FLWOR expression (or a constructor/path wrapping
// one) into a BlossomTree, following §3.1: for- and let-clauses grow the
// pattern trees with "f"/"l" annotated tree edges; where-clause atoms
// become crossing edges or vertex value constraints; return- and order
// by-clause paths extend the tree with optional edges. Conditions outside
// the conjunctive fragment are returned as residual filters.
func FromFLWOR(e flwor.Expr) (*Query, error) {
	f, err := findFLWOR(e)
	if err != nil {
		return nil, err
	}
	b := &builder{bt: NewBlossomTree(), vars: map[string]*Vertex{}, lets: map[string]*xpath.Path{},
		ends: map[*xpath.Path]*Vertex{}}
	q := &Query{Tree: b.bt, Vars: b.vars, Source: e}

	if err := b.positional(f, q); err != nil {
		return nil, err
	}
	for _, cl := range f.Clauses {
		mode := Mandatory
		if cl.Kind == flwor.LetClause {
			mode = Optional
		}
		path, _ := b.inlineLets(cl.Path, true)
		end, err := b.pathEndpoint(path, mode, false)
		if err != nil {
			return nil, fmt.Errorf("core: %s $%s: %w", cl.Kind, cl.Var, err)
		}
		if cl.Kind == flwor.LetClause && path.Source.Kind == xpath.SourceVar && end == b.vars[path.Source.Var] {
			// The path ($x/@id, $x/self::x, $x) took no step off $x's
			// vertex. A vertex carries one variable's binding, and $x/@id
			// is $x only where the attribute exists: narrowing the shared
			// vertex would drop $x rows.
			return nil, fmt.Errorf("core: let $%s := %s: a let path ending on the vertex of its own variable $%s is %w",
				cl.Var, cl.Path, path.Source.Var, ErrOutsideFragment)
		}
		if end.Blossom == "" {
			end.Blossom = cl.Var
		}
		end.Returning = true
		if cl.Kind == flwor.ForClause && !end.IsDocRoot() {
			end.ForBound = true
		}
		b.vars[cl.Var] = end
		if cl.Kind == flwor.LetClause {
			b.lets[cl.Var] = path
		}
	}

	if f.Where != nil && q.Pos != "" {
		positionalWhere(f.Where, q)
	} else if f.Where != nil {
		b.crossed = map[*Vertex]bool{}
		if err := b.cond(f.Where, q); err != nil {
			return nil, err
		}
		b.crossed = nil
	}
	if f.OrderBy != nil && !b.atPos(f.OrderBy) {
		end, err := b.pathEndpoint(stripTextTail(f.OrderBy), Optional, true)
		if err != nil {
			return nil, fmt.Errorf("core: order by: %w", err)
		}
		end.Returning = true
		b.ends[f.OrderBy] = end
	}
	if err := b.returnPaths(f.Return); err != nil {
		return nil, err
	}

	q.Return = b.bt.Finalize()
	q.Cells = make(map[*xpath.Path]*ReturnNode, len(b.ends))
	for p, end := range b.ends {
		if b.exactCell(p, end) {
			q.Cells[p], _ = q.Return.ByVertex(end)
		}
	}
	return q, nil
}

// positional records the FLWOR's positional variable. A row's ordinal
// is its place in the for-clause's binding sequence, and the planned
// rows are that sequence only when there is one for-clause (let-clauses
// never multiply rows); with several, the ordinal counts the bindings
// of one clause within each binding of the clauses before it, and the
// query runs navigationally.
func (b *builder) positional(f *flwor.FLWOR, q *Query) error {
	fors := 0
	for _, cl := range f.Clauses {
		if cl.Kind == flwor.ForClause {
			fors++
		}
		if cl.PosVar != "" {
			q.Pos, q.Limit = cl.PosVar, NoLimit
		}
	}
	if q.Pos == "" {
		return nil
	}
	if fors > 1 {
		return fmt.Errorf("core: positional variable $%s (at) in a FLWOR with %d for-clauses is %w",
			q.Pos, fors, ErrOutsideFragment)
	}
	for _, cl := range f.Clauses {
		if cl.Var == q.Pos {
			return fmt.Errorf("core: $%s bound both as a positional variable and by a clause is %w", q.Pos, ErrOutsideFragment)
		}
	}
	b.pos = q.Pos
	return nil
}

// positionalWhere compiles the where-clause of a FLWOR with a positional
// variable. XQuery numbers the for-clause's bindings before the where
// clause filters them, so no conjunct may narrow the pattern (an
// exists($a/b) pushed into it would drop rows before they are counted):
// every conjunct stays residual, bar a bound $i < N or $i <= N against a
// numeric literal, which the row limit implies wholly.
func positionalWhere(c xpath.Expr, q *Query) {
	if and, ok := c.(xpath.And); ok {
		positionalWhere(and.L, q)
		positionalWhere(and.R, q)
		return
	}
	if limit, implied, ok := ordinalBound(c, q.Pos); ok {
		q.Limit = min(q.Limit, limit)
		if implied {
			return
		}
	}
	q.Residual = append(q.Residual, c)
}

// ordinalBound returns the largest ordinal that passes a conjunct $pos op
// N, or its mirror N op $pos, with N a numeric literal and op one of <,
// <= and =, and whether passing that bound implies the conjunct (it does
// for < and <=; = also needs the ordinal to equal N).
func ordinalBound(c xpath.Expr, pos string) (limit int, implied, ok bool) {
	cmp, isCmp := c.(xpath.Compare)
	if !isCmp {
		return 0, false, false
	}
	l, r, op := cmp.Left, cmp.Right, cmp.Op
	if isVar(r, pos) {
		l, r, op = r, l, flipOp(op)
	}
	if !isVar(l, pos) || r.Kind != xpath.OperandNumber {
		return 0, false, false
	}
	var f float64
	switch op {
	case xpath.OpLt:
		f = math.Ceil(r.Num) - 1
	case xpath.OpLe, xpath.OpEq:
		f = math.Floor(r.Num)
	default:
		return 0, false, false
	}
	switch {
	case f <= 0:
		limit = 0
	case f >= 1<<62:
		limit = NoLimit
	default:
		limit = int(f)
	}
	return limit, op != xpath.OpEq, true
}

// isVar reports whether the operand is the bare variable $name.
func isVar(o xpath.Operand, name string) bool {
	return o.Kind == xpath.OperandPath && o.Path.Source.Kind == xpath.SourceVar &&
		o.Path.Source.Var == name && len(o.Path.Steps) == 0
}

// atPos reports whether p starts at the positional variable: it reads
// the row's ordinal, which the executor binds, so it adds no vertex.
func (b *builder) atPos(p *xpath.Path) bool {
	return b.pos != "" && p.Source.Kind == xpath.SourceVar && p.Source.Var == b.pos
}

// findFLWOR unwraps constructors down to the single FLWOR body.
func findFLWOR(e flwor.Expr) (*flwor.FLWOR, error) {
	switch t := e.(type) {
	case *flwor.FLWOR:
		return t, nil
	case *flwor.ElemCtor:
		var found *flwor.FLWOR
		for _, c := range t.Content {
			f, err := findFLWOR(c)
			if err != nil {
				continue
			}
			if found != nil {
				return nil, fmt.Errorf("core: constructor embeds multiple FLWOR expressions; compile them separately")
			}
			found = f
		}
		if found == nil {
			return nil, fmt.Errorf("core: constructor contains no FLWOR expression")
		}
		return found, nil
	default:
		return nil, fmt.Errorf("core: expression %T is not a FLWOR expression", e)
	}
}

// pathEndpoint resolves the path's source anchor and extends the tree
// with its steps, returning the endpoint vertex. reuse allows mapping
// onto structurally identical existing vertices; it is set for where-,
// order by- and return-clause extensions (which are existential relative
// to their anchor blossom, so the same path must map to the same vertex)
// and clear for for-/let-clause paths (each clause is an independent
// iteration and needs its own vertex — the two doc()//book clauses of
// Example 1 produce two book vertices, as in Figure 1).
func (b *builder) pathEndpoint(p *xpath.Path, mode Mode, reuse bool) (*Vertex, error) {
	anchor, err := b.anchor(p)
	if err != nil {
		return nil, err
	}
	return b.extend(anchor, p.Steps, mode, reuse)
}

// crossingEndpoint is pathEndpoint for a crossing's operand, which
// reads every match of the vertices below its anchor: they are recorded
// as crossed, so that no later where-conjunct narrows them.
func (b *builder) crossingEndpoint(p *xpath.Path, mode Mode, reuse bool) (*Vertex, error) {
	end, err := b.pathEndpoint(p, mode, reuse)
	anchor, _ := b.anchor(p)
	for v := end; err == nil && v != nil && v != anchor; v = v.Parent {
		b.crossed[v] = true
	}
	return end, err
}

// anchor resolves the vertex the path's source names: a document root
// or a variable's vertex. Its errors name the whole path.
func (b *builder) anchor(p *xpath.Path) (*Vertex, error) {
	switch p.Source.Kind {
	case xpath.SourceDoc:
		return b.bt.AddRoot(p.Source.Doc), nil
	case xpath.SourceRoot:
		return b.bt.AddRoot(""), nil
	case xpath.SourceVar:
		if v, ok := b.vars[p.Source.Var]; ok {
			return v, nil
		}
		if b.atPos(p) {
			return nil, fmt.Errorf("path %s starts at the positional variable, which is %w", p, ErrOutsideFragment)
		}
		return nil, fmt.Errorf("unbound variable $%s", p.Source.Var)
	default:
		return nil, fmt.Errorf("relative path %s has no anchor in a FLWOR clause", p)
	}
}

// extend grows the pattern tree along the given steps starting at
// anchor, reusing structurally identical existing children so that the
// same path referenced twice (e.g. in where and return) maps to the same
// vertex. It returns the endpoint vertex.
func (b *builder) extend(anchor *Vertex, steps []xpath.Step, mode Mode, reuse bool) (*Vertex, error) {
	cur := anchor
	fresh := false // cur was created by this call: nothing else is bound to it
	for i, st := range steps {
		if st.TextTest {
			// Pattern-tree vertices match elements; text() selection is a
			// projection the executor applies after matching (trailing
			// text() on paths, return clauses and order by), never a
			// vertex. Anything else is outside the fragment.
			return nil, fmt.Errorf("text() steps are %w", ErrOutsideFragment)
		}
		switch st.Axis {
		case xpath.Self:
			if err := b.predicates(cur, st.Preds, mode); err != nil {
				return nil, err
			}
			continue
		case xpath.Parent, xpath.Ancestor:
			if st.Axis == xpath.Parent && len(st.Preds) == 0 && cur.Parent != nil &&
				cur.ParentRel == RelChild && !cur.Parent.IsDocRoot() &&
				(st.Test == "*" || st.Test == cur.Parent.Test) {
				// Static rewrite: the /-edge pins this vertex's match as a
				// child of the parent vertex's match, so ".." lands exactly
				// there — the step costs no new edge and stays planned.
				cur, fresh = cur.Parent, false
				continue
			}
			rel := RelParent
			if st.Axis == xpath.Ancestor {
				rel = RelAncestor
			}
			next := b.bt.NewVertex(st.Test)
			b.bt.AddChild(cur, next, rel, mode)
			if err := b.predicates(next, st.Preds, mode); err != nil {
				return nil, err
			}
			cur, fresh = next, true
			continue
		case xpath.Attribute:
			if i != len(steps)-1 {
				return nil, fmt.Errorf("non-final attribute step @%s is %w", st.Test, ErrOutsideFragment)
			}
			if len(st.Preds) > 0 {
				return nil, fmt.Errorf("predicates on attribute steps are %w", ErrOutsideFragment)
			}
			// On an optional edge the existence test may only narrow a vertex
			// of this path's own: a return-clause $x/@id must not drop the $x
			// rows lacking the attribute (constructors read it navigationally).
			if mode == Mandatory || fresh {
				cur.Constraints = append(cur.Constraints, Constraint{Kind: CAttrExists, Attr: st.Test})
			}
			return cur, nil
		}
		rel := RelChild
		switch st.Axis {
		case xpath.Descendant:
			rel = RelDescendant
		case xpath.FollowingSibling:
			rel = RelFollowingSibling
		}
		// A trailing attribute step's carrier is never reused: the existence
		// test would narrow whatever else the reused vertex binds.
		carriesAttr := i == len(steps)-2 && steps[i+1].Axis == xpath.Attribute
		var next *Vertex
		if reuse && !carriesAttr {
			next = b.reuseChild(cur, st, rel, i < len(steps)-1)
		}
		fresh = next == nil
		if fresh {
			next = b.bt.NewVertex(st.Test)
			b.bt.AddChild(cur, next, rel, mode)
			if err := b.predicates(next, st.Preds, mode); err != nil {
				return nil, err
			}
		} else if next.ParentMode == Optional && mode == Mandatory {
			next.ParentMode = Mandatory
		}
		cur = next
	}
	return cur, nil
}

// reuseChild finds an existing equivalent child vertex for a
// predicate-free name-test step. A vertex on a for-variable's path is
// not equivalent: it binds one match per iteration, while the
// existential path ranges over all of them ($x/b in a where-clause is
// every b child of $x, not the one $y in $x/b binds).
//
// Nor, for a where-conjunct, is a vertex that sharing would narrow for
// another conjunct, since each conjunct ranges over its own matches: one
// whose matches another conjunct already narrowed to those with a
// mandatory child (exists($a/w//z) and $a/w = $b/w compares every w, not
// the w's with a z), or, when the path goes on below it (extends), one a
// crossing reads.
func (b *builder) reuseChild(parent *Vertex, st xpath.Step, rel Rel, extends bool) *Vertex {
	if len(st.Preds) > 0 {
		return nil
	}
	for _, c := range parent.Children {
		if c.Test != st.Test || c.ParentRel != rel || len(c.Constraints) > 0 || bindsFor(c) {
			continue
		}
		if b.crossed != nil && (hasMandatoryChild(c) || extends && b.crossed[c]) {
			continue
		}
		return c
	}
	return nil
}

// hasMandatoryChild reports whether some child edge of v is mandatory:
// only v's matches with such a child match v.
func hasMandatoryChild(v *Vertex) bool {
	for _, c := range v.Children {
		if c.ParentMode == Mandatory {
			return true
		}
	}
	return false
}

// bindsFor reports whether a for-variable binds v or a vertex below it.
func bindsFor(v *Vertex) bool {
	if v.ForBound {
		return true
	}
	for _, c := range v.Children {
		if bindsFor(c) {
			return true
		}
	}
	return false
}

// predicates compiles a step's predicate list onto vertex v. Predicates
// are conjunctive: nested relative paths become mandatory subtrees, value
// comparisons become vertex constraints, positions become positional
// constraints. Disjunction and negation inside path predicates are
// outside the BlossomTree fragment.
func (b *builder) predicates(v *Vertex, preds []xpath.Expr, mode Mode) error {
	for _, p := range preds {
		if err := b.predicate(v, p, mode); err != nil {
			return err
		}
	}
	return nil
}

func (b *builder) predicate(v *Vertex, e xpath.Expr, mode Mode) error {
	switch t := e.(type) {
	case xpath.And:
		if err := b.predicate(v, t.L, mode); err != nil {
			return err
		}
		return b.predicate(v, t.R, mode)
	case xpath.Exists:
		_, err := b.extend(v, t.Path.Steps, Mandatory, false)
		return err
	case xpath.Position:
		// Position is order-sensitive: [n] counts the step's candidates
		// BEFORE later filters apply, but the matcher gates position before
		// checking a vertex's other constraints and subtrees regardless of
		// predicate order. Only the position-first form is expressible.
		if len(v.Constraints) > 0 || len(v.Children) > 0 {
			return fmt.Errorf("positional predicate after other predicates on %s is %w", v.Label(), ErrOutsideFragment)
		}
		v.Constraints = append(v.Constraints, Constraint{Kind: CPosition, Pos: t.N})
		return nil
	case xpath.Compare:
		return b.comparePredicate(v, t)
	case xpath.Or:
		return fmt.Errorf("disjunctive path predicates (%s) are %w", e, ErrOutsideFragment)
	case xpath.Not:
		return fmt.Errorf("negated path predicates (%s) are %w", e, ErrOutsideFragment)
	case *xpath.FuncCall:
		return fmt.Errorf("function predicates (%s) are %w", e, ErrOutsideFragment)
	default:
		return fmt.Errorf("unsupported predicate %s", e)
	}
}

// comparePredicate attaches a path-vs-literal comparison as a value
// constraint on the appropriate vertex.
func (b *builder) comparePredicate(v *Vertex, cmp xpath.Compare) error {
	left, op, lit, err := normalizeCompare(cmp)
	if err != nil {
		// Function operands and path-vs-path comparisons inside path
		// predicates have no vertex-constraint form.
		return fmt.Errorf("%v: %w", err, ErrOutsideFragment)
	}
	target := v
	steps := left.Steps
	// "@attr op lit" or "path/@attr op lit": peel a trailing attribute step.
	attr := ""
	if n := len(steps); n > 0 && steps[n-1].Axis == xpath.Attribute {
		attr = steps[n-1].Test
		steps = steps[:n-1]
	}
	// "." (self) contributes no steps.
	if len(steps) == 1 && steps[0].Axis == xpath.Self && len(steps[0].Preds) == 0 {
		steps = nil
	}
	if len(steps) > 0 {
		target, err = b.extend(v, steps, Mandatory, false)
		if err != nil {
			return err
		}
	}
	if attr != "" {
		target.Constraints = append(target.Constraints, Constraint{Kind: CAttr, Attr: attr, Op: op, Value: lit})
	} else {
		target.Constraints = append(target.Constraints, Constraint{Kind: CValue, Op: op, Value: lit})
	}
	return nil
}

// normalizeCompare orients a comparison so the path is on the left and
// the literal on the right, flipping the operator if needed.
func normalizeCompare(cmp xpath.Compare) (*xpath.Path, xpath.CmpOp, string, error) {
	lit := func(o xpath.Operand) (string, bool) {
		switch o.Kind {
		case xpath.OperandString:
			return o.Str, true
		case xpath.OperandNumber:
			return strconv.FormatFloat(o.Num, 'g', -1, 64), true
		}
		return "", false
	}
	if l, ok := lit(cmp.Right); ok && cmp.Left.Kind == xpath.OperandPath {
		return cmp.Left.Path, cmp.Op, l, nil
	}
	if l, ok := lit(cmp.Left); ok && cmp.Right.Kind == xpath.OperandPath {
		return cmp.Right.Path, flipOp(cmp.Op), l, nil
	}
	return nil, 0, "", fmt.Errorf("comparison %s must relate a path and a literal inside a predicate", cmp)
}

func flipOp(op xpath.CmpOp) xpath.CmpOp {
	switch op {
	case xpath.OpLt:
		return xpath.OpGt
	case xpath.OpLe:
		return xpath.OpGe
	case xpath.OpGt:
		return xpath.OpLt
	case xpath.OpGe:
		return xpath.OpLe
	default:
		return op // = and != are symmetric
	}
}

// cond compiles the where-clause, the same xpath.Expr tree a path
// predicate is, but with anchored operands: conjunctions recurse; atoms
// become crossing edges or value constraints; everything else
// (disjunctions, negations that are not negated crossings) is residual.
func (b *builder) cond(c xpath.Expr, q *Query) error {
	switch t := c.(type) {
	case xpath.And:
		if err := b.cond(t.L, q); err != nil {
			return err
		}
		return b.cond(t.R, q)
	case xpath.Not:
		if ok, err := b.atom(t.E, true, q); err != nil {
			return err
		} else if !ok {
			q.Residual = append(q.Residual, c)
		}
		return nil
	default:
		if ok, err := b.atom(c, false, q); err != nil {
			return err
		} else if !ok {
			q.Residual = append(q.Residual, c)
		}
		return nil
	}
}

// atom tries to compile a single condition (possibly negated) into the
// BlossomTree. It reports false when the condition must stay residual.
func (b *builder) atom(c xpath.Expr, negate bool, q *Query) (bool, error) {
	switch t := c.(type) {
	case xpath.DocOrder:
		from, to := t.Left, t.Right
		if !t.Before { // a >> b  ≡  b << a
			from, to = to, from
		}
		if negate && (hasAttrTail(from) || hasAttrTail(to)) {
			// The doc-order crossing compares the carrying elements; under
			// negation a missing attribute must make the condition TRUE,
			// which the element comparison cannot express. Residualize.
			return false, nil
		}
		from, fin := b.inlineLets(from, false)
		to, tin := b.inlineLets(to, false)
		fv, err := b.crossingEndpoint(from, endpointMode(negate), !fin)
		if err != nil {
			return false, err
		}
		tv, err := b.crossingEndpoint(to, endpointMode(negate), !tin)
		if err != nil {
			return false, err
		}
		b.bt.AddCrossing(&Crossing{From: fv, To: tv, Kind: CrossDocOrder, Negate: negate})
		return true, nil
	case xpath.DeepEqual:
		if hasAttrTail(t.Left) || hasAttrTail(t.Right) {
			// deep-equal(empty, empty) is TRUE, so an element lacking the
			// attribute must contribute an empty sequence — but the crossing
			// projects the carrying element, which is non-empty. Residualize.
			return false, nil
		}
		// Optional endpoint edges: deep-equal(empty, empty) is TRUE, so
		// a row whose paths match nothing must survive to the crossing
		// evaluation (which sees two empty projections) instead of being
		// dropped by a mandatory edge.
		left, lin := b.inlineLets(t.Left, false)
		right, rin := b.inlineLets(t.Right, false)
		fv, err := b.crossingEndpoint(left, Optional, !lin)
		if err != nil {
			return false, err
		}
		tv, err := b.crossingEndpoint(right, Optional, !rin)
		if err != nil {
			return false, err
		}
		b.bt.AddCrossing(&Crossing{From: fv, To: tv, Kind: CrossDeepEqual, Negate: negate})
		return true, nil
	case xpath.Compare:
		if t.Left.Kind == xpath.OperandPath && t.Right.Kind == xpath.OperandPath {
			// Attribute-ending operand paths compare attribute values; the
			// crossing carries the attribute names and reads them per node.
			// Non-negated atoms keep the full path so pathEndpoint adds the
			// CAttrExists constraint (a node without the attribute makes the
			// comparison false, so dropping it early is equivalent). Negated
			// atoms use the peeled element prefix instead: a missing
			// attribute must reach the crossing, where the empty comparison
			// is false and the negation turns the row TRUE.
			lfull, lin := b.inlineLets(t.Left.Path, false)
			rfull, rin := b.inlineLets(t.Right.Path, false)
			lp, lattr := attrTail(lfull)
			rp, rattr := attrTail(rfull)
			if !negate {
				lp, rp = lfull, rfull
			}
			fv, err := b.crossingEndpoint(lp, endpointMode(negate), !lin)
			if err != nil {
				return false, err
			}
			tv, err := b.crossingEndpoint(rp, endpointMode(negate), !rin)
			if err != nil {
				return false, err
			}
			b.bt.AddCrossing(&Crossing{From: fv, To: tv, Kind: CrossValue, Op: t.Op,
				FromAttr: lattr, ToAttr: rattr, Negate: negate})
			return true, nil
		}
		if negate {
			return false, nil // not(path = lit) is not a vertex constraint
		}
		left, op, lit, err := normalizeCompare(t)
		if err != nil {
			return false, nil // literal-vs-literal etc. stays residual
		}
		left, _ = b.inlineLets(left, true)
		end, err := b.anchor(left)
		if err != nil {
			return false, err
		}
		// The constraint only filters rows where the vertex matched; an
		// empty operand makes the comparison false, so the chain down to
		// the anchor must be mandatory for the rows the oracle drops to
		// be dropped (comparePredicate grows the inlined steps as fresh
		// mandatory branches itself).
		require(end)
		return true, b.comparePredicate(end, xpath.Compare{
			Left:  xpath.Operand{Kind: xpath.OperandPath, Path: relativize(left)},
			Op:    op,
			Right: xpath.Operand{Kind: xpath.OperandString, Str: lit},
		})
	case xpath.Exists:
		if negate {
			return false, nil
		}
		p, inlined := b.inlineLets(t.Path, false)
		end, err := b.pathEndpoint(p, Mandatory, !inlined)
		if err != nil {
			return false, err
		}
		require(end) // any optional edges on the chain must turn mandatory
		return true, nil
	default:
		return false, nil
	}
}

// stripTextTail peels a trailing text() step off a path, leaving the
// element prefix the pattern tree can match. The full path (text()
// included) is still evaluated navigationally where its value matters
// — order-by keys and constructor content — so stripping here only
// widens the pattern, never changes results. The prefix shares the
// original's step array; paths are read-only after parsing.
func stripTextTail(p *xpath.Path) *xpath.Path {
	if n := len(p.Steps); n > 0 && p.Steps[n-1].TextTest {
		return &xpath.Path{Source: p.Source, Steps: p.Steps[:n-1]}
	}
	return p
}

// require upgrades every optional edge on v's ancestor chain to
// mandatory, so a vertex constraint or existence test on v actually
// eliminates rows where v has no match (the matcher never evaluates
// constraints on unmatched optional vertices).
func require(v *Vertex) {
	for ; v != nil && v.Parent != nil; v = v.Parent {
		if v.ParentMode == Optional {
			v.ParentMode = Mandatory
		}
	}
}

// inlineLets rewrites a path anchored at a let variable to start from
// the let definition's own anchor ($l/b with let $l := $x/a becomes
// $x/a/b). Where-clause and later-clause paths must never extend or
// constrain the vertex feeding a let binding's slot: the binding
// projects the WHOLE matched sequence, while a constraint or mandatory
// subtree attached there would narrow the projection to the satisfying
// instances only. Conditions are existential over the sequence, so an
// inlined parallel branch is equivalent — and leaves the binding vertex
// untouched. Reports whether any inlining happened so callers can
// disable vertex reuse (reuse could map the inlined prefix right back
// onto the binding vertex it is meant to avoid).
//
// A bare let-variable reference (no steps) is left alone unless force
// is set: an unadorned crossing endpoint or exists() test reads the
// binding vertex without modifying it, and reusing it keeps the tree in
// the paper's Figure 1 shape. Call sites that attach a constraint even
// to a step-less path (path-vs-literal comparisons) pass force; so do
// for/let clauses, where binding flags on a shared vertex would couple
// the two variables.
func (b *builder) inlineLets(p *xpath.Path, force bool) (*xpath.Path, bool) {
	inlined := false
	for p.Source.Kind == xpath.SourceVar && (force || len(p.Steps) > 0) {
		def, ok := b.lets[p.Source.Var]
		if !ok {
			break
		}
		steps := make([]xpath.Step, 0, len(def.Steps)+len(p.Steps))
		steps = append(append(steps, def.Steps...), p.Steps...)
		p = &xpath.Path{Source: def.Source, Steps: steps}
		inlined = true
	}
	return p, inlined
}

// endpointMode picks the tree-edge mode for a crossing endpoint. Negated
// crossings ride optional edges: not(a = b) is TRUE when either path is
// empty (the inner comparison is false), so rows with an empty projection
// must survive to the crossing evaluation instead of being dropped by a
// mandatory edge. Positive crossings keep mandatory edges — an empty
// operand makes the condition false, so dropping the row early is
// equivalent and cheaper.
func endpointMode(negate bool) Mode {
	if negate {
		return Optional
	}
	return Mandatory
}

// hasAttrTail reports whether the path's last step is an attribute step.
func hasAttrTail(p *xpath.Path) bool {
	_, a := attrTail(p)
	return a != ""
}

// attrTail splits a trailing attribute step off a path, returning the
// element prefix and the attribute name ("" when there is none).
func attrTail(p *xpath.Path) (*xpath.Path, string) {
	if n := len(p.Steps); n > 0 && p.Steps[n-1].Axis == xpath.Attribute {
		return &xpath.Path{Source: p.Source, Steps: p.Steps[:n-1]}, p.Steps[n-1].Test
	}
	return p, ""
}

// relativize strips a path's source, leaving its steps as a relative
// path.
func relativize(p *xpath.Path) *xpath.Path {
	return &xpath.Path{Source: xpath.Source{Kind: xpath.SourceContext}, Steps: p.Steps}
}

// returnPaths extends the tree with the paths referenced by the
// return-clause so their endpoints are returning nodes the executor can
// project. Return-clause edges are optional ("l"): a missing title must
// not eliminate a result pair.
func (b *builder) returnPaths(e flwor.Expr) error {
	switch t := e.(type) {
	case *flwor.PathExpr:
		if b.atPos(t.Path) {
			return nil // the row's ordinal, bound by the executor
		}
		if t.Path.Source.Kind == xpath.SourceVar || t.Path.Source.Kind == xpath.SourceDoc || t.Path.Source.Kind == xpath.SourceRoot {
			end, err := b.pathEndpoint(stripTextTail(t.Path), Optional, true)
			if err != nil {
				return fmt.Errorf("core: return: %w", err)
			}
			end.Returning = true
			b.ends[t.Path] = end
		}
		return nil
	case *flwor.Sequence:
		for _, it := range t.Items {
			if err := b.returnPaths(it); err != nil {
				return err
			}
		}
		return nil
	case *flwor.ElemCtor:
		for _, it := range t.Content {
			if err := b.returnPaths(it); err != nil {
				return err
			}
		}
		return nil
	case *flwor.TextCtor:
		return nil
	case *flwor.FLWOR:
		return fmt.Errorf("core: nested FLWOR expressions in return-clauses are outside the fragment")
	default:
		return fmt.Errorf("core: unsupported return expression %T", e)
	}
}

// exactCell reports whether, in every instance, the matches of end — the
// endpoint vertex p compiled to — are exactly the nodes p selects from
// the binding of its variable, before a trailing text() or attribute
// step (the executor re-applies those to the cell). It holds when p is
// a variable followed by predicate-free child and descendant steps that
// map one to one onto the vertices from the variable's down to end, and
// nothing narrows those vertices:
//   - no value or positional constraint on them (bar the existence test
//     of p's own attribute step on end);
//   - no mandatory child off the path, such as the subpattern of a
//     where-clause exists() the path shares a vertex with;
//   - no for-variable bound at or below them, whose per-pair join would
//     keep only the matched member of their groups.
//
// Ordering and duplicates are not part of it: the executor puts a cell
// in document order and drops repeats when it materializes it.
func (b *builder) exactCell(p *xpath.Path, end *Vertex) bool {
	if p.Source.Kind != xpath.SourceVar {
		return false
	}
	anchor := b.vars[p.Source.Var]
	if anchor == nil || anchor.IsDocRoot() {
		return false
	}
	steps, attr := p.Steps, ""
	if n := len(steps); n > 0 {
		switch last := steps[n-1]; {
		case len(last.Preds) > 0:
			return false
		case last.TextTest:
			if last.Axis != xpath.Child && last.Axis != xpath.Descendant {
				return false
			}
			steps = steps[:n-1]
		case last.Axis == xpath.Attribute:
			attr, steps = last.Test, steps[:n-1]
		}
	}
	v, below := end, (*Vertex)(nil)
	for i := len(steps) - 1; i >= 0; i-- {
		st := steps[i]
		rel := RelChild
		if st.Axis == xpath.Descendant {
			rel = RelDescendant
		} else if st.Axis != xpath.Child {
			return false
		}
		if len(st.Preds) > 0 || st.TextTest || v.Parent == nil || v.ParentRel != rel || v.Test != st.Test || bindsFor(v) {
			return false
		}
		for _, c := range v.Constraints {
			if c.Kind != CAttrExists || c.Attr != attr || v != end {
				return false
			}
		}
		for _, c := range v.Children {
			if c != below && c.ParentMode == Mandatory {
				return false
			}
		}
		v, below = v.Parent, v
	}
	return v == anchor
}
