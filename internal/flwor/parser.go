package flwor

import (
	"fmt"

	"blossomtree/internal/xpath"
)

// Parse parses a query: a FLWOR expression, a direct element constructor
// wrapping one (as in the paper's Example 1), or a bare path expression.
func Parse(src string) (Expr, error) {
	l := xpath.NewLexer(src)
	e := parseExpr(l)
	if l.Err() != nil {
		return nil, fmt.Errorf("flwor: %w", l.Err())
	}
	if l.Tok().Kind != xpath.TokEOF {
		return nil, fmt.Errorf("flwor: trailing input %q at offset %d", l.Tok().Text, l.Tok().Pos)
	}
	return e, nil
}

// MustParse is Parse for known-good queries.
func MustParse(src string) Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

// parseExpr carries a MaxDepth guard: nested FLWORs (a for inside a
// return clause) and braced sequences recurse through here.
func parseExpr(l *xpath.Lexer) Expr {
	if !l.Enter() {
		return &PathExpr{Path: &xpath.Path{}}
	}
	defer l.Leave()
	switch tok := l.Tok(); {
	case tok.Kind == xpath.TokLt:
		return parseCtor(l)
	case tok.Kind == xpath.TokName && (tok.Text == "for" || tok.Text == "let"):
		return parseFLWOR(l)
	default:
		p, err := xpath.ParseFrom(l)
		if err != nil {
			return &PathExpr{Path: &xpath.Path{}}
		}
		return &PathExpr{Path: p}
	}
}

// parseCtor parses <tag> ( <nested/> | { expr, … } )* </tag>. Literal
// text content inside constructors is not part of the fragment (the
// paper's queries only embed evaluated expressions), so anything other
// than a nested constructor or a braced expression is an error.
func parseCtor(l *xpath.Lexer) Expr {
	// Guarded separately from parseExpr: nested element constructors
	// recurse here directly, without passing through parseExpr.
	if !l.Enter() {
		return &ElemCtor{}
	}
	defer l.Leave()
	if !expect(l, xpath.TokLt) {
		return &ElemCtor{}
	}
	if l.Tok().Kind != xpath.TokName {
		l.Errorf("expected element name in constructor, got %s", l.Tok().Kind)
		return &ElemCtor{}
	}
	ctor := &ElemCtor{Tag: l.Tok().Text}
	l.Advance()
	// Self-closing form <tag/>.
	if l.Tok().Kind == xpath.TokSlash {
		l.Advance()
		expect(l, xpath.TokGt)
		return ctor
	}
	if !expect(l, xpath.TokGt) {
		return ctor
	}
	for {
		switch l.Tok().Kind {
		case xpath.TokLt:
			open := l.Tok()
			l.Advance()
			if l.Tok().Kind == xpath.TokSlash {
				// Closing tag.
				l.Advance()
				if l.Tok().Kind != xpath.TokName || l.Tok().Text != ctor.Tag {
					l.Errorf("mismatched closing tag </%s> for <%s>", l.Tok().Text, ctor.Tag)
					return ctor
				}
				l.Advance()
				expect(l, xpath.TokGt)
				return ctor
			}
			l.Push(open)
			ctor.Content = append(ctor.Content, parseCtor(l))
		case xpath.TokLBrace:
			l.Advance()
			ctor.Content = append(ctor.Content, parseSeq(l))
			if !expect(l, xpath.TokRBrace) {
				return ctor
			}
		case xpath.TokEOF:
			l.Errorf("unterminated constructor <%s>", ctor.Tag)
			return ctor
		default:
			l.Errorf("unexpected %s in constructor <%s> (literal text is outside the fragment)", l.Tok().Kind, ctor.Tag)
			return ctor
		}
	}
}

// parseSeq parses a comma-separated expression sequence.
func parseSeq(l *xpath.Lexer) Expr {
	first := parseExpr(l)
	if l.Tok().Kind != xpath.TokComma {
		return first
	}
	seq := &Sequence{Items: []Expr{first}}
	for l.Tok().Kind == xpath.TokComma {
		l.Advance()
		seq.Items = append(seq.Items, parseExpr(l))
	}
	return seq
}

func parseFLWOR(l *xpath.Lexer) Expr {
	f := &FLWOR{}
	seen := map[string]bool{}
	for {
		tok := l.Tok()
		if tok.Kind != xpath.TokName || (tok.Text != "for" && tok.Text != "let") {
			break
		}
		kind := ForClause
		if tok.Text == "let" {
			kind = LetClause
		}
		l.Advance()
		for {
			if l.Tok().Kind != xpath.TokVar {
				l.Errorf("expected $variable after %s", kind)
				return f
			}
			v := l.Tok().Text
			if seen[v] {
				l.Errorf("variable $%s bound twice", v)
				return f
			}
			seen[v] = true
			l.Advance()
			posVar := ""
			if kind == ForClause {
				if kw(l, "at") {
					if l.Tok().Kind != xpath.TokVar {
						l.Errorf("expected positional $variable after 'at'")
						return f
					}
					posVar = l.Tok().Text
					if seen[posVar] {
						l.Errorf("variable $%s bound twice", posVar)
						return f
					}
					seen[posVar] = true
					l.Advance()
				}
				if l.Tok().Kind != xpath.TokName || l.Tok().Text != "in" {
					l.Errorf("expected 'in' in for-clause")
					return f
				}
				l.Advance()
			} else if !expect(l, xpath.TokAssign) {
				return f
			}
			p, err := xpath.ParseFrom(l)
			if err != nil {
				return f
			}
			if err := checkClausePath(p, seen); err != nil {
				l.Errorf("%s", err)
				return f
			}
			f.Clauses = append(f.Clauses, Clause{Kind: kind, Var: v, PosVar: posVar, Path: p})
			if l.Tok().Kind != xpath.TokComma {
				break
			}
			l.Advance()
		}
	}
	if len(f.Clauses) == 0 {
		l.Errorf("FLWOR expression needs at least one for- or let-clause")
		return f
	}
	if kw(l, "where") {
		f.Where = xpath.ParseWhere(l)
	}
	if kw(l, "order") {
		if !kw(l, "by") {
			l.Errorf("expected 'by' after 'order'")
			return f
		}
		p, err := xpath.ParseFrom(l)
		if err != nil {
			return f
		}
		f.OrderBy = p
		switch {
		case kw(l, "ascending"):
			// The default direction; nothing to record.
		case kw(l, "descending"):
			f.OrderDesc = true
		case l.Tok().Kind == xpath.TokName && l.Tok().Text == "empty":
			l.Errorf("'empty greatest/least' order modifiers are not supported")
			return f
		}
	}
	if !kw(l, "return") {
		l.Errorf("expected 'return' clause, got %q", l.Tok().Text)
		return f
	}
	f.Return = parseExpr(l)
	return f
}

// checkClausePath validates that a clause path's source is available:
// doc(), an already-bound variable, or absolute.
func checkClausePath(p *xpath.Path, bound map[string]bool) error {
	if p.Source.Kind == xpath.SourceVar && !bound[p.Source.Var] {
		return fmt.Errorf("unbound variable $%s", p.Source.Var)
	}
	return nil
}

// kw consumes the given keyword if present.
func kw(l *xpath.Lexer, word string) bool {
	if l.Tok().Kind == xpath.TokName && l.Tok().Text == word {
		l.Advance()
		return true
	}
	return false
}

func expect(l *xpath.Lexer, k xpath.TokKind) bool {
	if l.Tok().Kind != k {
		l.Errorf("expected %s, got %s", k, l.Tok().Kind)
		return false
	}
	l.Advance()
	return true
}
