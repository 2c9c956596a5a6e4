package xpath

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses a complete path expression, e.g.
//
//	doc("bib.xml")//book[author/last="Knuth"]/title
//	//a[//b][//c]//e
//	$book1/title
//	/a/b//[c/d//e]
//
// The grammar is the paper's fragment: child and descendant axes, name
// tests and wildcards, predicate lists with nested relative paths, value
// comparisons, position predicates, and `following-sibling::` (the second
// local axis NoK trees admit).
func Parse(src string) (*Path, error) {
	l := NewLexer(src)
	p, err := ParseFrom(l)
	if err != nil {
		return nil, err
	}
	if l.Tok().Kind != TokEOF {
		return nil, fmt.Errorf("xpath: trailing input %q at offset %d", l.Tok().Text, l.Tok().Pos)
	}
	return p, nil
}

// MustParse is Parse for known-good expressions (tests, examples).
func MustParse(src string) *Path {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// ParseFrom parses a path starting at the lexer's current token, leaving
// the lexer positioned after the path. It is the entry point the FLWOR
// parser uses for embedded paths.
func ParseFrom(l *Lexer) (*Path, error) {
	p := parsePath(l)
	if l.Err() != nil {
		return nil, fmt.Errorf("xpath: %w", l.Err())
	}
	return p, nil
}

func parsePath(l *Lexer) *Path {
	p := &Path{}
	switch tok := l.Tok(); tok.Kind {
	case TokName:
		if tok.Text == "doc" {
			// doc("uri") prefix
			save := tok
			l.Advance()
			if l.Tok().Kind == TokLParen {
				l.Advance()
				if l.Tok().Kind != TokString {
					l.Errorf("expected string literal in doc()")
					return p
				}
				p.Source = Source{Kind: SourceDoc, Doc: l.Tok().Text}
				l.Advance()
				if !expect(l, TokRParen) {
					return p
				}
				parseSteps(l, p, true)
				return p
			}
			l.Push(save)
		}
		// Relative path.
		p.Source = Source{Kind: SourceContext}
		parseRelativeSteps(l, p)
	case TokVar:
		p.Source = Source{Kind: SourceVar, Var: tok.Text}
		l.Advance()
		parseSteps(l, p, true)
	case TokSlash, TokDSlash:
		p.Source = Source{Kind: SourceRoot}
		parseSteps(l, p, true)
	case TokDot, TokDotDot, TokStar, TokAt, TokAxis:
		p.Source = Source{Kind: SourceContext}
		parseRelativeSteps(l, p)
	default:
		l.Errorf("expected path expression, got %s", tok.Kind)
	}
	return p
}

// parseSteps parses zero or more (/step | //step) continuations.
// requireLeading is true after a source prefix (doc(), $var, absolute
// root), where every step must be introduced by / or //.
func parseSteps(l *Lexer, p *Path, requireLeading bool) {
	_ = requireLeading
	for {
		var axis Axis
		switch l.Tok().Kind {
		case TokSlash:
			axis = Child
		case TokDSlash:
			axis = Descendant
		default:
			return
		}
		l.Advance()
		st, ok := parseStep(l, axis)
		if !ok {
			return
		}
		p.Steps = append(p.Steps, st)
	}
}

// parseRelativeSteps parses a relative path: first step has implicit
// child axis (or is "."), then continuations.
func parseRelativeSteps(l *Lexer, p *Path) {
	st, ok := parseStep(l, Child)
	if !ok {
		return
	}
	p.Steps = append(p.Steps, st)
	parseSteps(l, p, false)
}

// parseStep parses a single step after its axis separator has been
// consumed. The default axis may be overridden by an explicit axis::
// prefix or @ shorthand. A bare predicate list (e.g. the paper's
// "//[c/d//e]") is a wildcard test.
func parseStep(l *Lexer, axis Axis) (Step, bool) {
	st := Step{Axis: axis}
	switch tok := l.Tok(); tok.Kind {
	case TokAxis:
		ax, ok := AxisByName(tok.Text)
		if !ok {
			l.Errorf("unsupported axis %q (supported axes: %s)", tok.Text, SupportedAxes())
			return st, false
		}
		st.Axis = ax
		l.Advance()
		return parseNodeTest(l, st)
	case TokDotDot:
		st.Axis = Parent
		st.Test = "*"
		l.Advance()
		parsePredicates(l, &st)
		return st, l.Err() == nil
	case TokAt:
		st.Axis = Attribute
		l.Advance()
		return parseNodeTest(l, st)
	case TokDot:
		st.Axis = Self
		st.Test = "*"
		l.Advance()
		parsePredicates(l, &st)
		return st, l.Err() == nil
	case TokLBracket:
		// "//[pred]" — wildcard test with predicates.
		st.Test = "*"
		parsePredicates(l, &st)
		return st, l.Err() == nil
	default:
		return parseNodeTest(l, st)
	}
}

func parseNodeTest(l *Lexer, st Step) (Step, bool) {
	switch tok := l.Tok(); tok.Kind {
	case TokName:
		if tok.Text == "text" {
			// text() kind test: selects text nodes. Only meaningful on the
			// downward axes; a text node has no attributes, siblings are
			// not part of the fragment, and self would need a text context.
			save := tok
			l.Advance()
			if l.Tok().Kind == TokLParen {
				l.Advance()
				if !expect(l, TokRParen) {
					return st, false
				}
				if st.Axis != Child && st.Axis != Descendant {
					l.Errorf("text() is only supported on the child and descendant axes")
					return st, false
				}
				if l.Tok().Kind == TokLBracket {
					l.Errorf("predicates on text() are outside the fragment")
					return st, false
				}
				st.Test = "text()"
				st.TextTest = true
				return st, l.Err() == nil
			}
			l.Push(save)
		}
		st.Test = tok.Text
	case TokStar:
		st.Test = "*"
	default:
		l.Errorf("expected node test, got %s", tok.Kind)
		return st, false
	}
	l.Advance()
	parsePredicates(l, &st)
	return st, l.Err() == nil
}

func parsePredicates(l *Lexer, st *Step) {
	for l.Tok().Kind == TokLBracket {
		l.Advance()
		e := parseOr(l, false)
		if !expect(l, TokRBracket) {
			return
		}
		st.Preds = append(st.Preds, e)
	}
}

// ParseWhere parses a where-clause condition starting at the lexer's
// current token, leaving the lexer after it; the FLWOR parser calls it
// after the where keyword. Conditions share the predicate grammar with
// a where mode: operands are paths of any source ($var, doc(), absolute
// or relative), numbers are literals rather than positions, and
// exists(), deep-equal(), << and >> are accepted.
func ParseWhere(l *Lexer) Expr { return parseOr(l, true) }

// parseOr heads every expression recursion cycle (nested predicates
// recurse through parseOperand's relative paths, parentheses through
// parseUnary), so it alone carries the MaxDepth guard. where selects
// where-clause mode (see ParseWhere); false parses a path predicate.
func parseOr(l *Lexer, where bool) Expr {
	if !l.Enter() {
		return Exists{Path: &Path{}}
	}
	defer l.Leave()
	e := parseAnd(l, where)
	for l.Tok().Kind == TokName && l.Tok().Text == "or" {
		l.Advance()
		e = Or{L: e, R: parseAnd(l, where)}
	}
	return e
}

func parseAnd(l *Lexer, where bool) Expr {
	e := parseUnary(l, where)
	for l.Tok().Kind == TokName && l.Tok().Text == "and" {
		l.Advance()
		e = And{L: e, R: parseUnary(l, where)}
	}
	return e
}

func parseUnary(l *Lexer, where bool) Expr {
	if tok := l.Tok(); tok.Kind == TokName &&
		(tok.Text == "not" || where && (tok.Text == "exists" || tok.Text == "deep-equal")) {
		l.Advance()
		if l.Tok().Kind == TokLParen {
			l.Advance()
			var e Expr
			switch tok.Text {
			case "not":
				e = Not{E: parseOr(l, where)}
			case "exists":
				e = Exists{Path: parsePath(l)}
			default:
				a := parsePath(l)
				expect(l, TokComma)
				e = DeepEqual{Left: a, Right: parsePath(l)}
			}
			expect(l, TokRParen)
			return e
		}
		l.Push(tok)
	}
	if tok := l.Tok(); tok.Kind == TokLParen {
		l.Advance()
		inner := parseOr(l, where)
		expect(l, TokRParen)
		return inner
	}
	return parseComparison(l, where)
}

func parseComparison(l *Lexer, where bool) Expr {
	// Positional shorthand [2].
	if tok := l.Tok(); tok.Kind == TokNumber && !where {
		n, err := strconv.Atoi(tok.Text)
		if err != nil || n < 1 {
			l.Errorf("positional predicate must be a positive integer, got %q", tok.Text)
			return Position{N: 1}
		}
		l.Advance()
		return Position{N: n}
	}
	left, isPosition := parseOperand(l, where)
	if k := l.Tok().Kind; where && (k == TokBefore || k == TokAfter) {
		l.Advance()
		right, _ := parseOperand(l, where)
		if left.Kind != OperandPath || right.Kind != OperandPath {
			l.Errorf("operands of %s must be node paths", k)
			return DocOrder{}
		}
		return DocOrder{Left: left.Path, Right: right.Path, Before: k == TokBefore}
	}
	op, isCmp := cmpOp(l.Tok().Kind)
	if !isCmp {
		if isPosition {
			l.Errorf("position() requires a comparison")
			return Position{N: 1}
		}
		if left.Kind == OperandFunc {
			// Bare function call in boolean position: its effective
			// boolean value is the condition.
			return left.Fn
		}
		if left.Kind != OperandPath {
			l.Errorf("a literal condition must be part of a comparison")
		}
		return Exists{Path: left.Path}
	}
	l.Advance()
	right, rightPos := parseOperand(l, where)
	if rightPos {
		l.Errorf("position() must appear on the left of a comparison")
	}
	if isPosition {
		if op != OpEq || right.Kind != OperandNumber {
			l.Errorf("only position() = N is supported")
			return Position{N: 1}
		}
		return Position{N: int(right.Num)}
	}
	return Compare{Left: left, Op: op, Right: right}
}

func cmpOp(k TokKind) (CmpOp, bool) {
	switch k {
	case TokEq:
		return OpEq, true
	case TokNeq:
		return OpNeq, true
	case TokLt:
		return OpLt, true
	case TokLe:
		return OpLe, true
	case TokGt:
		return OpGt, true
	case TokGe:
		return OpGe, true
	}
	return 0, false
}

// parseOperand parses one comparison operand; the bool result reports
// whether it was the position() function, which predicates alone know.
func parseOperand(l *Lexer, where bool) (Operand, bool) {
	switch tok := l.Tok(); tok.Kind {
	case TokString:
		l.Advance()
		return Operand{Kind: OperandString, Str: tok.Text}, false
	case TokNumber:
		n, err := strconv.ParseFloat(tok.Text, 64)
		if err != nil && where {
			// A where-clause reads the token's longest numeric prefix
			// ("1.2.3" is 1.2).
			_, err = fmt.Sscanf(tok.Text, "%g", &n)
		}
		if err != nil {
			l.Errorf("bad number %q", tok.Text)
		}
		l.Advance()
		return Operand{Kind: OperandNumber, Num: n}, false
	case TokName:
		if tok.Text == "position" && !where {
			l.Advance()
			if l.Tok().Kind == TokLParen {
				l.Advance()
				expect(l, TokRParen)
				return Operand{Kind: OperandPath}, true
			}
			l.Push(tok)
		}
		if fn := parseFuncCall(l); fn != nil {
			return Operand{Kind: OperandFunc, Fn: fn}, false
		}
	}
	if where {
		return Operand{Kind: OperandPath, Path: parsePath(l)}, false
	}
	// Relative path operand (includes "." and "@attr").
	p := &Path{Source: Source{Kind: SourceContext}}
	switch l.Tok().Kind {
	case TokDot, TokDotDot, TokName, TokStar, TokAt, TokAxis, TokSlash, TokDSlash:
		if l.Tok().Kind == TokSlash || l.Tok().Kind == TokDSlash {
			parseSteps(l, p, true)
		} else {
			parseRelativeSteps(l, p)
		}
	default:
		l.Errorf("expected operand, got %s", l.Tok().Kind)
	}
	return Operand{Kind: OperandPath, Path: p}, false
}

// parseFuncCall parses a core library function call when the current
// token names one and an argument list follows; otherwise it restores
// the lexer and returns nil. Its arguments are read as predicate
// operands in either mode, plus $var paths.
func parseFuncCall(l *Lexer) *FuncCall {
	tok := l.Tok()
	if tok.Kind != TokName || !IsCoreFunction(tok.Text) {
		return nil
	}
	save := tok
	l.Advance()
	if l.Tok().Kind != TokLParen {
		l.Push(save)
		return nil
	}
	l.Advance()
	f := &FuncCall{Name: save.Text}
	// Nested calls recurse through parseOperand; bound the cycle here.
	if !l.Enter() {
		return f
	}
	defer l.Leave()
	if l.Tok().Kind != TokRParen {
		for {
			var arg Operand
			if l.Tok().Kind == TokVar {
				// A $var path is a valid argument ($x/b in a where-clause),
				// though a predicate's own operands stay relative-only.
				arg = Operand{Kind: OperandPath, Path: parsePath(l)}
			} else {
				var isPos bool
				arg, isPos = parseOperand(l, false)
				if isPos {
					l.Errorf("position() cannot be a function argument")
					return f
				}
			}
			f.Args = append(f.Args, arg)
			if l.Tok().Kind != TokComma {
				break
			}
			l.Advance()
		}
	}
	if !expect(l, TokRParen) {
		return f
	}
	ok := false
	for _, n := range funcArities[f.Name] {
		if n == len(f.Args) {
			ok = true
		}
	}
	if !ok {
		counts := make([]string, len(funcArities[f.Name]))
		for i, n := range funcArities[f.Name] {
			counts[i] = strconv.Itoa(n)
		}
		l.Errorf("%s() takes %s argument(s), got %d", f.Name, strings.Join(counts, " or "), len(f.Args))
	}
	return f
}

func expect(l *Lexer, k TokKind) bool {
	if l.Tok().Kind != k {
		l.Errorf("expected %s, got %s", k, l.Tok().Kind)
		return false
	}
	l.Advance()
	return true
}
