package exec

import (
	"fmt"

	"blossomtree/internal/flwor"
	"blossomtree/internal/naveval"
	"blossomtree/internal/xmltree"
)

// constructOutput builds the result document from the query's
// constructors: the outer constructor (if any) becomes the document
// element, and the FLWOR's return expression is instantiated once per
// environment row. Queries whose return is a bare path produce no
// Output document; their answer is Returned. The resolver comes from the
// evaluation's snapshot so concurrent Adds cannot change which documents
// return-clause paths see.
func constructOutput(resolve naveval.Resolver, expr flwor.Expr, f *flwor.FLWOR, res *Result) error {
	if !hasConstructor(expr) && !hasConstructor(f.Return) {
		return returnSequence(resolve, f, res)
	}
	b := xmltree.NewBuilder()
	var build func(x flwor.Expr, env naveval.Env) error
	build = func(x flwor.Expr, env naveval.Env) error {
		switch t := x.(type) {
		case *flwor.ElemCtor:
			b.Start(t.Tag)
			for _, c := range t.Content {
				if err := build(c, env); err != nil {
					return err
				}
			}
			b.End()
			return nil
		case *flwor.TextCtor:
			b.Text(t.Text)
			return nil
		case *flwor.Sequence:
			for _, it := range t.Items {
				if err := build(it, env); err != nil {
					return err
				}
			}
			return nil
		case *flwor.FLWOR:
			for _, row := range res.Envs {
				if err := build(t.Return, row); err != nil {
					return err
				}
			}
			return nil
		case *flwor.PathExpr:
			if env == nil {
				return fmt.Errorf("exec: path %s outside any FLWOR iteration", t.Path)
			}
			ns, err := naveval.EvalPathEnv(resolve, env, t.Path)
			if err != nil {
				return err
			}
			for _, n := range ns {
				copyInto(b, n)
			}
			return nil
		default:
			return fmt.Errorf("exec: unsupported return expression %T", x)
		}
	}

	top := expr
	if _, isCtor := expr.(*flwor.ElemCtor); !isCtor {
		// Bare FLWOR whose return constructs elements: wrap the sequence
		// in a synthetic root so the output is a well-formed document.
		b.Start("results")
		if err := build(expr, nil); err != nil {
			return err
		}
		b.End()
		doc, err := b.Done()
		if err != nil {
			return err
		}
		res.Output = doc
		return nil
	}
	if err := build(top, nil); err != nil {
		return err
	}
	doc, err := b.Done()
	if err != nil {
		return err
	}
	res.Output = doc
	return nil
}

// returnSequence fills res.Returned with a constructor-less return
// path evaluated on each row, in iteration order.
func returnSequence(resolve naveval.Resolver, f *flwor.FLWOR, res *Result) error {
	ret, ok := f.Return.(*flwor.PathExpr)
	if !ok {
		return fmt.Errorf("exec: unsupported return expression %T", f.Return)
	}
	for _, env := range res.Envs {
		ns, err := naveval.EvalPathEnv(resolve, env, ret.Path)
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

// copyInto deep-copies a result subtree into the output document under
// construction. A document node is replaced by its children (XQuery 1.0
// §3.7.1.3).
func copyInto(b *xmltree.Builder, n *xmltree.Node) {
	switch n.Kind {
	case xmltree.TextNode:
		b.Text(n.Text)
	case xmltree.DocumentNode:
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			copyInto(b, c)
		}
	case xmltree.ElementNode:
		attrs := make([]xmltree.Attr, len(n.Attrs))
		copy(attrs, n.Attrs)
		b.StartAttrs(n.Tag, attrs)
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			copyInto(b, c)
		}
		b.End()
	}
}
