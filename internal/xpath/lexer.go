// Package xpath implements the path-expression subset of the paper: the
// lexer (shared with the FLWOR compiler), an AST, and a recursive-descent
// parser for location paths with child (/) and descendant-or-self (//)
// axes, name tests, wildcards, nested structural predicates, value
// comparisons, and positional predicates — the fragment the BlossomTree
// formalism and all Appendix-A benchmark queries are built from. The
// predicate grammar doubles, in its where mode (ParseWhere), as the
// grammar of FLWOR where-clauses: both parse into one Expr tree.
package xpath

import (
	"fmt"
	"strings"
	"unicode"
)

// TokKind enumerates token kinds. The lexer is shared by the FLWOR
// parser, so it knows about the few extra operators FLWOR needs (:=, <<,
// braces, comma).
type TokKind int

// Token kinds.
const (
	TokEOF      TokKind = iota
	TokName             // element names and keywords (for, let, where, …)
	TokVar              // $name
	TokString           // "…" or '…'
	TokNumber           // integer or decimal literal
	TokSlash            // /
	TokDSlash           // //
	TokLBracket         // [
	TokRBracket         // ]
	TokLParen           // (
	TokRParen           // )
	TokLBrace           // {
	TokRBrace           // }
	TokAt               // @
	TokStar             // *
	TokDot              // .
	TokDotDot           // .. (abbreviated parent axis)
	TokComma            // ,
	TokEq               // =
	TokNeq              // !=
	TokLt               // <
	TokLe               // <=
	TokGt               // >
	TokGe               // >=
	TokBefore           // <<
	TokAfter            // >>
	TokAssign           // :=
	TokAxis             // axis:: prefix (value holds the axis name)
)

// String names the kind for diagnostics.
func (k TokKind) String() string {
	names := map[TokKind]string{
		TokEOF: "EOF", TokName: "name", TokVar: "$var", TokString: "string",
		TokNumber: "number", TokSlash: "/", TokDSlash: "//", TokLBracket: "[",
		TokRBracket: "]", TokLParen: "(", TokRParen: ")", TokLBrace: "{",
		TokRBrace: "}", TokAt: "@", TokStar: "*", TokDot: ".", TokComma: ",",
		TokEq: "=", TokNeq: "!=", TokLt: "<", TokLe: "<=", TokGt: ">",
		TokGe: ">=", TokBefore: "<<", TokAfter: ">>", TokAssign: ":=",
		TokAxis: "axis::", TokDotDot: "..",
	}
	if s, ok := names[k]; ok {
		return s
	}
	return fmt.Sprintf("TokKind(%d)", int(k))
}

// Token is a lexed token with its source position (byte offset).
type Token struct {
	Kind TokKind
	Text string // identifier text, string value, or number text
	Pos  int
}

// MaxDepth bounds the nesting depth the recursive-descent parsers
// accept (predicates, parenthesized expressions, element constructors,
// nested FLWORs). Adversarial inputs like "[[[[…" otherwise recurse
// once per character and overflow the goroutine stack; beyond the bound
// parsing fails with an ordinary error instead.
const MaxDepth = 512

// Lexer tokenizes a query string. It also carries the recursion-depth
// counter shared by the XPath and FLWOR parsers, since both parse from
// the same lexer (FLWOR embeds paths, paths embed predicates).
type Lexer struct {
	src   string
	pos   int
	tok   Token
	err   error
	next  *Token // one-token pushback
	depth int    // current recursive-production nesting, bounded by MaxDepth
}

// NewLexer returns a lexer positioned before the first token; call
// Advance to load it.
func NewLexer(src string) *Lexer {
	l := &Lexer{src: src}
	l.Advance()
	return l
}

// Tok returns the current token.
func (l *Lexer) Tok() Token { return l.tok }

// Err returns the first lexing error.
func (l *Lexer) Err() error { return l.err }

// Errorf records a parse error at the current token, keeping the first.
func (l *Lexer) Errorf(format string, args ...any) {
	if l.err == nil {
		l.err = fmt.Errorf("%s at offset %d", fmt.Sprintf(format, args...), l.tok.Pos)
	}
}

// Enter records entry into one level of a recursive production and
// reports whether parsing may continue. On overflow it records a parse
// error and jumps the lexer to EOF, so every enclosing production's
// loop terminates and the parsers unwind without further recursion.
func (l *Lexer) Enter() bool {
	l.depth++
	if l.depth > MaxDepth {
		l.fail(l.tok.Pos, "expression nesting deeper than %d levels", MaxDepth)
		return false
	}
	return true
}

// Leave exits a recursive production entered with Enter.
func (l *Lexer) Leave() { l.depth-- }

// Push pushes the current token back and makes prev current again; only a
// single token of lookahead is supported.
func (l *Lexer) Push(prev Token) {
	t := l.tok
	l.next = &t
	l.tok = prev
}

func isNameStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isNameChar(r rune) bool {
	return r == '_' || r == '-' || r == '.' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// Advance moves to the next token.
func (l *Lexer) Advance() {
	if l.next != nil {
		l.tok = *l.next
		l.next = nil
		return
	}
	for l.pos < len(l.src) && unicode.IsSpace(rune(l.src[l.pos])) {
		l.pos++
	}
	start := l.pos
	if l.pos >= len(l.src) {
		l.tok = Token{Kind: TokEOF, Pos: start}
		return
	}
	c := l.src[l.pos]
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	emit := func(k TokKind, n int, text string) {
		l.tok = Token{Kind: k, Text: text, Pos: start}
		l.pos += n
	}
	switch {
	case two == "//":
		emit(TokDSlash, 2, "//")
	case two == "!=":
		emit(TokNeq, 2, "!=")
	case two == "<=":
		emit(TokLe, 2, "<=")
	case two == ">=":
		emit(TokGe, 2, ">=")
	case two == "<<":
		emit(TokBefore, 2, "<<")
	case two == ">>":
		emit(TokAfter, 2, ">>")
	case two == ":=":
		emit(TokAssign, 2, ":=")
	case two == "..":
		emit(TokDotDot, 2, "..")
	case c == '/':
		emit(TokSlash, 1, "/")
	case c == '[':
		emit(TokLBracket, 1, "[")
	case c == ']':
		emit(TokRBracket, 1, "]")
	case c == '(':
		emit(TokLParen, 1, "(")
	case c == ')':
		emit(TokRParen, 1, ")")
	case c == '{':
		emit(TokLBrace, 1, "{")
	case c == '}':
		emit(TokRBrace, 1, "}")
	case c == '@':
		emit(TokAt, 1, "@")
	case c == '*':
		emit(TokStar, 1, "*")
	case c == ',':
		emit(TokComma, 1, ",")
	case c == '=':
		emit(TokEq, 1, "=")
	case c == '<':
		emit(TokLt, 1, "<")
	case c == '>':
		emit(TokGt, 1, ">")
	case c == '.':
		// "." is the context-node test; ".5" style numbers are not in the
		// fragment, so a lone dot is always TokDot.
		emit(TokDot, 1, ".")
	case c == '"' || c == '\'':
		l.lexString(c)
	case c >= '0' && c <= '9':
		end := l.pos
		for end < len(l.src) && (l.src[end] >= '0' && l.src[end] <= '9' || l.src[end] == '.') {
			end++
		}
		emit(TokNumber, end-l.pos, l.src[l.pos:end])
	case c == '$':
		l.pos++
		if l.pos >= len(l.src) || !isNameStart(rune(l.src[l.pos])) {
			l.fail(start, "expected variable name after $")
			return
		}
		end := l.pos
		for end < len(l.src) && isNameChar(rune(l.src[end])) {
			end++
		}
		l.tok = Token{Kind: TokVar, Text: l.src[l.pos:end], Pos: start}
		l.pos = end
	case isNameStart(rune(c)):
		end := l.pos
		for end < len(l.src) && isNameChar(rune(l.src[end])) {
			end++
		}
		name := l.src[l.pos:end]
		// axis::name syntax
		if strings.HasPrefix(l.src[end:], "::") {
			l.tok = Token{Kind: TokAxis, Text: name, Pos: start}
			l.pos = end + 2
			return
		}
		emit(TokName, end-l.pos, name)
	default:
		l.fail(start, "unexpected character %q", c)
	}
}

func (l *Lexer) lexString(quote byte) {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == quote {
			l.pos++
			l.tok = Token{Kind: TokString, Text: sb.String(), Pos: start}
			return
		}
		sb.WriteByte(c)
		l.pos++
	}
	l.fail(start, "unterminated string literal")
}

func (l *Lexer) fail(pos int, format string, args ...any) {
	if l.err == nil {
		l.err = fmt.Errorf("%s at offset %d", fmt.Sprintf(format, args...), pos)
	}
	l.tok = Token{Kind: TokEOF, Pos: pos}
	// Drop any pushed-back token: a pending Push could otherwise
	// resurrect a non-EOF token after the jump to end-of-input and keep
	// a parser loop alive.
	l.next = nil
	l.pos = len(l.src)
}
