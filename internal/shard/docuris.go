package shard

import (
	"blossomtree/internal/flwor"
	"blossomtree/internal/xpath"
)

// docRefs is the set of document references a query reaches: every
// doc("…") URI appearing in any path of the expression, plus "" when any
// absolute (/, //) path appears — absolute paths resolve to the
// catalog's first registered document, which is how the engine's
// resolution rule reads the empty URI, so the router must treat them as
// a reference to it.
type docRefs map[string]bool

// collectDocRefs walks a parsed expression and gathers its document
// references. The walk must reach every position a path can occupy —
// clauses, where-conditions and their operands, function-call
// arguments, step predicates, order-by, return expressions and
// constructor content — or the router could send a query to a shard
// missing one of its documents.
func collectDocRefs(e flwor.Expr) docRefs {
	r := docRefs{}
	r.expr(e)
	return r
}

func (r docRefs) expr(e flwor.Expr) {
	switch t := e.(type) {
	case *flwor.PathExpr:
		r.path(t.Path)
	case *flwor.Sequence:
		for _, it := range t.Items {
			r.expr(it)
		}
	case *flwor.ElemCtor:
		for _, c := range t.Content {
			r.expr(c)
		}
	case *flwor.TextCtor:
	case *flwor.FLWOR:
		for _, cl := range t.Clauses {
			r.path(cl.Path)
		}
		r.cond(t.Where)
		r.path(t.OrderBy)
		r.expr(t.Return)
	}
}

func (r docRefs) cond(c flwor.Cond) {
	switch t := c.(type) {
	case nil:
	case flwor.CondAnd:
		r.cond(t.L)
		r.cond(t.R)
	case flwor.CondOr:
		r.cond(t.L)
		r.cond(t.R)
	case flwor.CondNot:
		r.cond(t.C)
	case flwor.CondCmp:
		r.operand(t.Left)
		r.operand(t.Right)
	case flwor.CondDocOrder:
		r.path(t.Left)
		r.path(t.Right)
	case flwor.CondDeepEqual:
		r.path(t.Left)
		r.path(t.Right)
	case flwor.CondExists:
		r.path(t.Path)
	case flwor.CondBool:
		r.funcCall(t.Fn)
	}
}

func (r docRefs) path(p *xpath.Path) {
	if p == nil {
		return
	}
	switch p.Source.Kind {
	case xpath.SourceDoc:
		r[p.Source.Doc] = true
	case xpath.SourceRoot:
		r[""] = true
	}
	for _, st := range p.Steps {
		for _, pred := range st.Preds {
			r.pred(pred)
		}
	}
}

func (r docRefs) pred(e xpath.Expr) {
	switch t := e.(type) {
	case nil:
	case xpath.Exists:
		r.path(t.Path)
	case xpath.Compare:
		r.operand(t.Left)
		r.operand(t.Right)
	case xpath.And:
		r.pred(t.L)
		r.pred(t.R)
	case xpath.Or:
		r.pred(t.L)
		r.pred(t.R)
	case xpath.Not:
		r.pred(t.E)
	case xpath.Position:
	case *xpath.FuncCall:
		r.funcCall(t)
	}
}

func (r docRefs) operand(o xpath.Operand) {
	switch o.Kind {
	case xpath.OperandPath:
		r.path(o.Path)
	case xpath.OperandFunc:
		r.funcCall(o.Fn)
	}
}

func (r docRefs) funcCall(f *xpath.FuncCall) {
	if f == nil {
		return
	}
	for _, a := range f.Args {
		r.operand(a)
	}
}
