// Package flwor implements the FLWOR-expression subset of the paper
// (§3.1):
//
//	FLWOR ::= ( 'for' Var 'in' Path | 'let' Var ':=' Path )+
//	          ('where' Boolean)?
//	          ('order' 'by' Path)?
//	          'return' Expr
//
// plus the direct element constructors the paper's Example 1 wraps
// around FLWOR expressions. The where-clause is an xpath.Expr, parsed by
// the predicate grammar in its where mode (xpath.ParseWhere): it
// supports the three kinds of correlations BlossomTree captures —
// value-based comparisons (=, !=, <, <=, >, >=), structural comparisons
// (<<, >>), and the mixed structural/value relationship deep-equal() —
// along with and/or/not and exists().
package flwor

import (
	"strings"

	"blossomtree/internal/xpath"
)

// Expr is any expression: a FLWOR, a path, a constructor, or a sequence.
type Expr interface {
	String() string
	isExpr()
}

// PathExpr wraps a path expression.
type PathExpr struct{ Path *xpath.Path }

// Sequence is a comma- or adjacency-separated list of expressions
// (constructor content).
type Sequence struct{ Items []Expr }

// ElemCtor is a direct element constructor <tag>{…}…</tag>. Content
// holds the embedded expressions in order.
type ElemCtor struct {
	Tag     string
	Content []Expr
}

// TextCtor is literal text inside a constructor.
type TextCtor struct{ Text string }

// ClauseKind discriminates for- and let-clauses.
type ClauseKind int

// Clause kinds.
const (
	ForClause ClauseKind = iota
	LetClause
)

// String names the clause kind.
func (k ClauseKind) String() string {
	if k == ForClause {
		return "for"
	}
	return "let"
}

// Clause is a single for- or let-binding. PosVar is the positional
// variable of `for $x at $i in …` (empty when absent; never set on
// let-clauses): it binds the 1-based index of $x within its binding
// sequence.
type Clause struct {
	Kind   ClauseKind
	Var    string
	PosVar string
	Path   *xpath.Path
}

// FLWOR is a parsed FLWOR expression.
type FLWOR struct {
	Clauses []Clause
	Where   xpath.Expr // nil when absent
	OrderBy *xpath.Path
	// OrderDesc reverses the order-by direction (the `descending`
	// modifier; ascending is the default and is not recorded).
	OrderDesc bool
	Return    Expr
}

func (*PathExpr) isExpr() {}
func (*Sequence) isExpr() {}
func (*ElemCtor) isExpr() {}
func (*TextCtor) isExpr() {}
func (*FLWOR) isExpr()    {}

// String reprints the path.
func (e *PathExpr) String() string { return e.Path.String() }

// String reprints the sequence.
func (e *Sequence) String() string {
	parts := make([]string, len(e.Items))
	for i, it := range e.Items {
		parts[i] = it.String()
	}
	return strings.Join(parts, ", ")
}

// String reprints the constructor.
func (e *ElemCtor) String() string {
	var sb strings.Builder
	sb.WriteString("<" + e.Tag + ">")
	for _, c := range e.Content {
		if t, ok := c.(*TextCtor); ok {
			sb.WriteString(t.Text)
			continue
		}
		sb.WriteString("{ " + c.String() + " }")
	}
	sb.WriteString("</" + e.Tag + ">")
	return sb.String()
}

// String reprints the literal text.
func (e *TextCtor) String() string { return e.Text }

// String reprints the FLWOR expression.
func (e *FLWOR) String() string {
	var sb strings.Builder
	for i, c := range e.Clauses {
		if i > 0 {
			sb.WriteByte(' ')
		}
		if c.Kind == ForClause {
			sb.WriteString("for $" + c.Var)
			if c.PosVar != "" {
				sb.WriteString(" at $" + c.PosVar)
			}
			sb.WriteString(" in " + c.Path.String())
		} else {
			sb.WriteString("let $" + c.Var + " := " + c.Path.String())
		}
	}
	if e.Where != nil {
		sb.WriteString(" where " + e.Where.String())
	}
	if e.OrderBy != nil {
		sb.WriteString(" order by " + e.OrderBy.String())
		if e.OrderDesc {
			sb.WriteString(" descending")
		}
	}
	sb.WriteString(" return " + e.Return.String())
	return sb.String()
}
