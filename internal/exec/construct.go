package exec

import (
	"fmt"

	"blossomtree/internal/flwor"
	"blossomtree/internal/naveval"
	"blossomtree/internal/xmltree"
)

// construct builds the query's answer from its rows: with constructors,
// the output fragment (see buildOutput); without, Returned, the return
// path's nodes row after row. A return path reads its exact cell where
// the row has one and navigates otherwise. The resolver comes from the
// evaluation's snapshot so concurrent Adds cannot change which documents
// return-clause paths see. A gathered evaluation builds no fragment: the
// fan-out's gather builds one over every document's rows.
func construct(resolve naveval.Resolver, expr flwor.Expr, f *flwor.FLWOR, rs *rowSet, res *Result, gathered bool) error {
	if !hasConstructor(expr) {
		return returnSequence(resolve, f, rs, res)
	}
	if gathered {
		return nil
	}
	out, err := buildOutput(expr, []rowSource{{resolve: resolve, rows: rs}})
	res.Output = out
	return err
}

// rowSource is one evaluation's rows with the resolver their paths
// navigate under.
type rowSource struct {
	resolve naveval.Resolver
	rows    *rowSet
}

// buildOutput builds the output fragment of a query with constructors:
// its outer constructor (if any) is the root element, and its FLWOR
// return expression is instantiated once per row of each source in
// turn, its paths referencing the nodes they select.
func buildOutput(expr flwor.Expr, srcs []rowSource) (*xmltree.Fragment, error) {
	out := &xmltree.Fragment{}
	var build func(x flwor.Expr, src *rowSource, inst int) error
	build = func(x flwor.Expr, src *rowSource, inst int) error {
		switch t := x.(type) {
		case *flwor.ElemCtor:
			out.Start(t.Tag)
			for _, c := range t.Content {
				if err := build(c, src, inst); err != nil {
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
				if err := build(it, src, inst); err != nil {
					return err
				}
			}
			return nil
		case *flwor.FLWOR:
			for i := range srcs {
				for _, row := range srcs[i].rows.order {
					if err := build(t.Return, &srcs[i], int(row)); err != nil {
						return err
					}
				}
			}
			return nil
		case *flwor.PathExpr:
			if inst < 0 {
				return fmt.Errorf("exec: path %s outside any FLWOR iteration", t.Path)
			}
			ns, err := src.rows.path(inst, t.Path, src.resolve, nil)
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
	if err := build(expr, nil, -1); err != nil {
		return nil, err
	}
	if !isCtor {
		out.End()
	}
	return out, nil
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
