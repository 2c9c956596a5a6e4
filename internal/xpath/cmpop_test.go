package xpath

import (
	"strconv"
	"strings"
	"testing"
)

// parseFloatEval is CmpOp.Eval as it reads without ParseNumber's
// first-byte filter: every operand goes straight to strconv.ParseFloat.
func parseFloatEval(o CmpOp, left, right string) bool {
	ln, errL := strconv.ParseFloat(strings.TrimSpace(left), 64)
	rn, errR := strconv.ParseFloat(strings.TrimSpace(right), 64)
	if errL == nil && errR == nil {
		return [...]bool{ln == rn, ln != rn, ln < rn, ln <= rn, ln > rn, ln >= rn}[o]
	}
	return [...]bool{left == right, left != right, left < right, left <= right, left > right, left >= right}[o]
}

// TestCmpOpEvalNumericReading: the first-byte filter in front of
// ParseFloat keeps every operand's numeric-versus-string reading, so each
// comparison decides as an unfiltered ParseFloat would.
func TestCmpOpEvalNumericReading(t *testing.T) {
	operands := []string{" 12 ", "12", "-0", "0", "NaN", "inf", "1e3", "1000", "", "abc", "abd"}
	for _, l := range operands {
		for _, r := range operands {
			for o := OpEq; o <= OpGe; o++ {
				if got, want := o.Eval(l, r), parseFloatEval(o, l, r); got != want {
					t.Errorf("%q %s %q = %v, want %v", l, o, r, got, want)
				}
			}
		}
	}
	for _, tc := range []struct {
		l    string
		o    CmpOp
		r    string
		want bool
	}{
		{" 12 ", OpEq, "12", true},  // numeric: the spaces are trimmed
		{"-0", OpEq, "0", true},     // numeric: -0 == 0
		{"NaN", OpEq, "NaN", false}, // numeric: NaN equals nothing
		{"NaN", OpNeq, "NaN", true},
		{"inf", OpGt, "1e3", true},  // numeric: +Inf
		{"1e3", OpEq, "1000", true}, // numeric
		{"", OpEq, "", true},        // string
		{"abc", OpLt, "abd", true},  // string
		{"abc", OpLt, "1e3", false}, // string: "a" sorts after "1"
		{"12", OpLt, "9", false},    // numeric, not "12" < "9"
		{"12", OpLt, "9abc", true},  // string: one side is not a number
	} {
		if got := tc.o.Eval(tc.l, tc.r); got != tc.want {
			t.Errorf("%q %s %q = %v, want %v", tc.l, tc.o, tc.r, got, tc.want)
		}
	}
}

// TestCmpOpEvalNonNumberAllocatesNothing: an operand that cannot be a
// number is turned away before strconv.ParseFloat builds its error.
func TestCmpOpEvalNonNumberAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { OpEq.Eval("publisher", "Springer") }); n != 0 {
		t.Errorf("Eval on two non-numbers allocates %v objects, want 0", n)
	}
}

// TestParseNumberAgreesWithParseFloatOnLetters: the filter in front of
// ParseFloat accepts a text exactly when ParseFloat does, with the same
// value, on letter-led and sign-led texts above all.
func TestParseNumberAgreesWithParseFloatOnLetters(t *testing.T) {
	for _, s := range []string{"india", "november", "Nancy Lynch", "inf", "INF", "-inf", "+Inf", "infinity",
		"-Infinity", "+INFINITY", "infinit", "infinityy", "nan", "NaN", "-nan", "+NaN", "nana", "i", "n", "-i",
		"-india", "+x", "-", "+", "", ".", "-.5", "+.5", "1", " 1", "1 ", "0x1p-2", "1e400", "-0"} {
		f, num := ParseNumber(s)
		want, err := strconv.ParseFloat(s, 64)
		if num != (err == nil) || num && !(f == want || f != f && want != want) {
			t.Errorf("ParseNumber(%q) = %v, %v; ParseFloat gives %v, %v", s, f, num, want, err)
		}
	}
}

// TestParseNumberLetterLedAllocatesNothing: a letter-led text that is
// not inf, infinity or nan never reaches ParseFloat's error allocation.
func TestParseNumberLetterLedAllocatesNothing(t *testing.T) {
	for _, s := range []string{"india", "november", "Nancy Lynch", "-india", "Infinite Jest"} {
		if n := testing.AllocsPerRun(100, func() { ParseNumber(s) }); n != 0 {
			t.Errorf("ParseNumber(%q) allocates %v objects, want 0", s, n)
		}
	}
}

// TestKeyOfMatchesEval: two values share an OpEq key exactly when
// OpEq.Eval calls them equal.
func TestKeyOfMatchesEval(t *testing.T) {
	operands := []string{" 1 ", "1", "1.0", "01", "-0", "0", " 0", "NaN", "nan", "inf", "Infinity", "+inf",
		"-inf", "india", "1e3", "1000", "", " ", "abc", "abc ", "0x10", "16"}
	for _, l := range operands {
		for _, r := range operands {
			kl, okl := KeyOf(l)
			kr, okr := KeyOf(r)
			if got, want := okl && okr && kl == kr, OpEq.Eval(l, r); got != want {
				t.Errorf("KeyOf(%q) = %+v, %v; KeyOf(%q) = %+v, %v; Eval = %v", l, kl, okl, r, kr, okr, want)
			}
		}
	}
}
