package xpath

import (
	"fmt"
	"strconv"
	"strings"
)

// Axis is the step axis. The fragment covers the axes the paper's
// formalism uses — child (/), descendant (//), self (.), attribute (@)
// and following-sibling (which NoK pattern trees admit as a local axis)
// — plus the upward parent (..) and ancestor axes, which light up the
// reverse tree-pattern edge kinds of the survey literature.
type Axis int

// Axes.
const (
	Child Axis = iota
	Descendant
	Self
	FollowingSibling
	Attribute
	Parent
	Ancestor
)

// axisTable is the single source of truth for the axis surface: every
// supported axis, its axis::-syntax name, and its abbreviated rendering.
// The parser's allow-list, the evaluators' error messages and the
// printers all derive from it, so the "supported axes" diagnostics can
// never drift from what the parser actually accepts.
var axisTable = []struct {
	axis   Axis
	name   string // axis::-prefix spelling
	abbrev string // abbreviated step prefix ("" when only axis:: syntax exists)
}{
	{Child, "child", "/"},
	{Descendant, "descendant", "//"},
	{Self, "self", "."},
	{FollowingSibling, "following-sibling", ""},
	{Attribute, "attribute", "/@"},
	{Parent, "parent", "/.."},
	{Ancestor, "ancestor", ""},
}

// AxisByName resolves an axis::-prefix name against the axis table.
func AxisByName(name string) (Axis, bool) {
	for _, e := range axisTable {
		if e.name == name {
			return e.axis, true
		}
	}
	return 0, false
}

// Name returns the axis's axis::-syntax name ("child", "parent", …).
func (a Axis) Name() string {
	for _, e := range axisTable {
		if e.axis == a {
			return e.name
		}
	}
	return fmt.Sprintf("Axis(%d)", int(a))
}

// SupportedAxes renders the current allow-list ("child, descendant, …")
// for diagnostics. It is generated from the axis table, so error
// messages always report exactly the axes the parser accepts.
func SupportedAxes() string {
	names := make([]string, len(axisTable))
	for i, e := range axisTable {
		names[i] = e.name
	}
	return strings.Join(names, ", ")
}

// Local reports whether the axis is local in the paper's sense (usable
// inside a NoK pattern tree without recursive matching). Descendant is
// the global axis along which BlossomTrees are cut into NoK trees;
// ancestor is its upward mirror and equally non-local.
func (a Axis) Local() bool { return a != Descendant && a != Ancestor }

// String renders the axis in abbreviated XPath syntax.
func (a Axis) String() string {
	switch a {
	case Child:
		return "/"
	case Descendant:
		return "//"
	case Self:
		return "."
	case FollowingSibling:
		return "/following-sibling::"
	case Attribute:
		return "/@"
	case Parent:
		return "/.."
	case Ancestor:
		return "/ancestor::"
	default:
		return fmt.Sprintf("Axis(%d)", int(a))
	}
}

// SourceKind says where a path starts.
type SourceKind int

// Source kinds.
const (
	SourceContext SourceKind = iota // relative path (context node)
	SourceRoot                      // absolute path: / or //
	SourceDoc                       // doc("file.xml")
	SourceVar                       // $variable
)

// Source is the origin of a path expression.
type Source struct {
	Kind SourceKind
	Doc  string // for SourceDoc
	Var  string // for SourceVar
}

// quoteLit renders a string literal in lexer syntax. The lexer has no
// escape sequences, so the literal must be wrapped in a quote character
// it does not contain; a string lexed from source never contains its own
// delimiter, so one of the two quote kinds always works.
func quoteLit(s string) string {
	if strings.Contains(s, `"`) {
		return "'" + s + "'"
	}
	return `"` + s + `"`
}

// String renders the source prefix.
func (s Source) String() string {
	switch s.Kind {
	case SourceDoc:
		return "doc(" + quoteLit(s.Doc) + ")"
	case SourceVar:
		return "$" + s.Var
	default:
		return ""
	}
}

// Step is one location step: an axis, a node test, and predicates.
type Step struct {
	Axis  Axis
	Test  string // tag name, or "*" for any element; attribute name when Axis == Attribute
	Preds []Expr
	// TextTest marks the text() kind test: the step selects text nodes
	// instead of elements. Test holds "text()" so printing round-trips.
	TextTest bool
}

// Matches reports whether the step's node test accepts the tag.
func (s Step) Matches(tag string) bool { return s.Test == "*" || s.Test == tag }

// String renders the step without its leading axis separator.
func (s Step) String() string {
	var sb strings.Builder
	sb.WriteString(s.Test)
	for _, p := range s.Preds {
		sb.WriteByte('[')
		sb.WriteString(p.String())
		sb.WriteByte(']')
	}
	return sb.String()
}

// Path is a parsed path expression.
type Path struct {
	Source Source
	Steps  []Step
}

// String reprints the path in source syntax.
func (p *Path) String() string {
	var sb strings.Builder
	sb.WriteString(p.Source.String())
	for i, st := range p.Steps {
		switch st.Axis {
		case Descendant:
			sb.WriteString("//")
		case Self:
			if i == 0 && p.Source.Kind == SourceContext {
				sb.WriteString(".")
			} else {
				sb.WriteString("/.")
			}
			for _, pr := range st.Preds {
				sb.WriteString("[" + pr.String() + "]")
			}
			continue
		case FollowingSibling:
			if i > 0 || p.Source.Kind != SourceContext {
				sb.WriteString("/")
			}
			sb.WriteString("following-sibling::")
		case Parent:
			if i > 0 || p.Source.Kind != SourceContext {
				sb.WriteString("/")
			}
			if st.Test == "*" {
				sb.WriteString("..")
				for _, pr := range st.Preds {
					sb.WriteString("[" + pr.String() + "]")
				}
				continue
			}
			sb.WriteString("parent::")
		case Ancestor:
			if i > 0 || p.Source.Kind != SourceContext {
				sb.WriteString("/")
			}
			sb.WriteString("ancestor::")
		case Attribute:
			if i > 0 || p.Source.Kind != SourceContext {
				sb.WriteString("/")
			}
			sb.WriteString("@")
		default:
			if i > 0 || p.Source.Kind != SourceContext {
				sb.WriteString("/")
			}
		}
		sb.WriteString(st.String())
	}
	return sb.String()
}

// CmpOp is a general comparison operator.
type CmpOp int

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNeq
	OpLt
	OpLe
	OpGt
	OpGe
)

// String renders the operator.
func (o CmpOp) String() string {
	return [...]string{"=", "!=", "<", "<=", ">", ">="}[o]
}

// Eval applies the operator to a string comparison result following
// XPath's general-comparison semantics for untyped values: numeric
// comparison when both sides parse as numbers, string comparison
// otherwise.
func (o CmpOp) Eval(left, right string) bool {
	if ln, ok := ParseNumber(strings.TrimSpace(left)); ok {
		if rn, ok := ParseNumber(strings.TrimSpace(right)); ok {
			switch o {
			case OpEq:
				return ln == rn
			case OpNeq:
				return ln != rn
			case OpLt:
				return ln < rn
			case OpLe:
				return ln <= rn
			case OpGt:
				return ln > rn
			case OpGe:
				return ln >= rn
			}
		}
	}
	switch o {
	case OpEq:
		return left == right
	case OpNeq:
		return left != right
	case OpLt:
		return left < right
	case OpLe:
		return left <= right
	case OpGt:
		return left > right
	case OpGe:
		return left >= right
	}
	return false
}

// EqKey is a value's hash key under OpEq: two values are equal by
// OpEq.Eval exactly when both have a key and their keys are equal. A
// value whose trimmed text is a number keys by that number, with -0 read
// as 0; any other value keys by its raw text. NaN equals nothing, so it
// has no key.
type EqKey struct {
	Str   string
	Num   float64
	IsNum bool
}

// KeyOf returns the OpEq hash key of a value, or false for NaN.
func KeyOf(s string) (EqKey, bool) {
	f, ok := ParseNumber(strings.TrimSpace(s))
	switch {
	case !ok:
		return EqKey{Str: s}, true
	case f != f:
		return EqKey{}, false
	case f == 0:
		return EqKey{IsNum: true}, true // -0 == 0
	}
	return EqKey{Num: f, IsNum: true}, true
}

// ParseNumber parses s as strconv.ParseFloat does and reports whether it
// is a number. Every text ParseFloat accepts starts, after an optional
// sign, with a point, a digit, or is "inf", "infinity" or "nan" in any
// case, so any other text is turned away without the failed parse's
// error allocation.
func ParseNumber(s string) (float64, bool) {
	body := s
	if body != "" && (body[0] == '+' || body[0] == '-') {
		body = body[1:]
	}
	if body == "" {
		return 0, false
	}
	switch c := body[0]; {
	case c == '.' || '0' <= c && c <= '9':
	case strings.EqualFold(body, "inf") || strings.EqualFold(body, "infinity") || strings.EqualFold(body, "nan"):
	default:
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil
}

// OperandKind discriminates comparison operands.
type OperandKind int

// Operand kinds.
const (
	OperandPath OperandKind = iota
	OperandString
	OperandNumber
	OperandFunc
)

// Operand is one side of a comparison: a path (in a predicate a
// relative one, including "." for the context node; in a where-clause
// any), a literal, or a core library function call.
type Operand struct {
	Kind OperandKind
	Path *Path
	Str  string
	Num  float64
	Fn   *FuncCall
}

// String renders the operand.
func (o Operand) String() string {
	switch o.Kind {
	case OperandPath:
		return o.Path.String()
	case OperandString:
		return quoteLit(o.Str)
	case OperandFunc:
		return o.Fn.String()
	default:
		// 'f' keeps the rendering inside the lexer's digits-and-dot number
		// syntax; 'g' would emit exponent forms the lexer cannot read back.
		return strconv.FormatFloat(o.Num, 'f', -1, 64)
	}
}

// funcArities maps each core library function to its accepted argument
// counts. The table is the parser's allow-list; evaluators switch on the
// same names, so an accepted call always has an evaluation.
var funcArities = map[string][]int{
	"contains":    {2},
	"starts-with": {2},
	"count":       {1},
	"sum":         {1},
	"string-join": {1, 2},
	"number":      {0, 1},
	"name":        {0, 1},
}

// IsCoreFunction reports whether name is one of the core library
// functions (contains, starts-with, count, sum, string-join, number,
// name). Parser-level pseudo-functions (position, not, text, doc,
// exists, deep-equal) are not in this set — they have their own grammar
// productions.
func IsCoreFunction(name string) bool {
	_, ok := funcArities[name]
	return ok
}

// FuncCall is a call to a core library function. Calls appear as
// comparison operands (count(a) = 2, number(@n) < 5) and, for the
// boolean functions, directly as predicates ([contains(., "x")]) and
// where-conditions; non-boolean calls in boolean position take their
// XPath-1.0 effective boolean value (number ≠ 0, string ≠ "").
type FuncCall struct {
	Name string
	Args []Operand
}

func (*FuncCall) isExpr() {}

// String renders the call in source syntax.
func (f *FuncCall) String() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return f.Name + "(" + strings.Join(parts, ", ") + ")"
}

// Expr is a Boolean expression: a path predicate or a where-clause
// condition. Both contexts share the node types; Position occurs only in
// predicates, DocOrder and DeepEqual only in where-clauses.
type Expr interface {
	String() string
	isExpr()
}

// Exists tests whether a path has at least one match: a bare path in
// boolean position, or a where-clause's exists(path).
type Exists struct{ Path *Path }

// Compare applies a general comparison between two operands.
type Compare struct {
	Left  Operand
	Op    CmpOp
	Right Operand
}

// And is logical conjunction.
type And struct{ L, R Expr }

// Or is logical disjunction.
type Or struct{ L, R Expr }

// Not is logical negation.
type Not struct{ E Expr }

// Position is a positional predicate [n] (1-based within the matched
// sibling group, per XPath).
type Position struct{ N int }

// DocOrder is the where-clause's structural node comparison << (Before
// true) or >>.
type DocOrder struct {
	Left, Right *Path
	Before      bool
}

// DeepEqual is the where-clause's deep-equal(a, b): the mixed
// structural/value relationship of the paper.
type DeepEqual struct{ Left, Right *Path }

func (Exists) isExpr()    {}
func (Compare) isExpr()   {}
func (And) isExpr()       {}
func (Or) isExpr()        {}
func (Not) isExpr()       {}
func (Position) isExpr()  {}
func (DocOrder) isExpr()  {}
func (DeepEqual) isExpr() {}

// String renders the predicate.
func (e Exists) String() string { return e.Path.String() }

// String renders the comparison.
func (e Compare) String() string {
	return e.Left.String() + e.Op.String() + e.Right.String()
}

// String renders the conjunction. A disjunction operand is
// parenthesized (and binds tighter than or), and so is a conjunction on
// the right (both associate to the left): the printed form reparses to
// this tree.
func (e And) String() string {
	_, lOr := e.L.(Or)
	_, rOr := e.R.(Or)
	_, rAnd := e.R.(And)
	return group(e.L, lOr) + " and " + group(e.R, rOr || rAnd)
}

// String renders the disjunction; a disjunction on the right is
// parenthesized.
func (e Or) String() string {
	_, rOr := e.R.(Or)
	return e.L.String() + " or " + group(e.R, rOr)
}

// group renders e, in parentheses when paren is set.
func group(e Expr, paren bool) string {
	if paren {
		return "(" + e.String() + ")"
	}
	return e.String()
}

// String renders the negation.
func (e Not) String() string { return "not(" + e.E.String() + ")" }

// String renders the positional predicate.
func (e Position) String() string { return strconv.Itoa(e.N) }

// String renders the node comparison.
func (e DocOrder) String() string {
	op := " << "
	if !e.Before {
		op = " >> "
	}
	return e.Left.String() + op + e.Right.String()
}

// String renders the call.
func (e DeepEqual) String() string {
	return "deep-equal(" + e.Left.String() + ", " + e.Right.String() + ")"
}
