package exec

import (
	"fmt"

	"blossomtree/internal/flwor"
	"blossomtree/internal/naveval"
	"blossomtree/internal/xmltree"
)

// construct builds the query's answer from its rows: with constructors,
// the output fragment, whose outer constructor (if any) is the root
// element and whose FLWOR return expression is instantiated once per
// row, its paths referencing the nodes they select; without, Returned,
// the return path's nodes row after row. A return path reads its exact
// cell where the row has one and navigates otherwise. The resolver
// comes from the evaluation's snapshot so concurrent Adds cannot change
// which documents return-clause paths see.
func construct(resolve naveval.Resolver, expr flwor.Expr, f *flwor.FLWOR, rs *rowSet, res *Result) error {
	if !hasConstructor(expr) && !hasConstructor(f.Return) {
		return returnSequence(resolve, f, rs, res)
	}
	out := &xmltree.Fragment{}
	var build func(x flwor.Expr, inst int) error
	build = func(x flwor.Expr, inst int) error {
		switch t := x.(type) {
		case *flwor.ElemCtor:
			out.Start(t.Tag)
			for _, c := range t.Content {
				if err := build(c, inst); err != nil {
					return err
				}
			}
			out.End()
			return nil
		case *flwor.TextCtor:
			out.Text(t.Text)
			return nil
		case *flwor.Sequence:
			for _, it := range t.Items {
				if err := build(it, inst); err != nil {
					return err
				}
			}
			return nil
		case *flwor.FLWOR:
			for _, row := range rs.order {
				if err := build(t.Return, int(row)); err != nil {
					return err
				}
			}
			return nil
		case *flwor.PathExpr:
			if inst < 0 {
				return fmt.Errorf("exec: path %s outside any FLWOR iteration", t.Path)
			}
			ns, err := rs.path(inst, t.Path, resolve, nil)
			if err != nil {
				return err
			}
			for _, n := range ns {
				out.Ref(n)
			}
			return nil
		default:
			return fmt.Errorf("exec: unsupported return expression %T", x)
		}
	}

	_, isCtor := expr.(*flwor.ElemCtor)
	if !isCtor {
		// Bare FLWOR whose return constructs elements: wrap the sequence
		// in a synthetic root so the output is a well-formed document.
		out.Start("results")
	}
	if err := build(expr, -1); err != nil {
		return err
	}
	if !isCtor {
		out.End()
	}
	res.Output = out
	return nil
}

// returnSequence fills res.Returned with a constructor-less return
// path's nodes, row after row.
func returnSequence(resolve naveval.Resolver, f *flwor.FLWOR, rs *rowSet, res *Result) error {
	ret, ok := f.Return.(*flwor.PathExpr)
	if !ok {
		return fmt.Errorf("exec: unsupported return expression %T", f.Return)
	}
	for _, row := range rs.order {
		ns, err := rs.path(int(row), ret.Path, resolve, nil)
		if err != nil {
			return err
		}
		res.Returned = append(res.Returned, ns...)
	}
	return nil
}

// hasConstructor reports whether the expression constructs any element.
func hasConstructor(x flwor.Expr) bool {
	switch t := x.(type) {
	case *flwor.ElemCtor:
		return true
	case *flwor.Sequence:
		for _, it := range t.Items {
			if hasConstructor(it) {
				return true
			}
		}
	case *flwor.FLWOR:
		return hasConstructor(t.Return)
	}
	return false
}
