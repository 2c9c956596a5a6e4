package naveval

import (
	"math/rand"
	"sort"
	"testing"

	"blossomtree/internal/xmltree"
)

// TestSortByKeysMatchesOrderKeyLess: sorting through the keys parsed once
// gives, in both directions, the order a stable sort by OrderKeyLess on
// the raw keys gives — for random mixes of numeric, textual, empty and
// special-value keys, ties included.
func TestSortByKeysMatchesOrderKeyLess(t *testing.T) {
	pool := []string{"", " ", "0", "-0", "9", "10", "2.5", "2.50", "007", "+1", "-2", "1e3", "1e400",
		"0x10", "NaN", "nan", "Inf", "-Inf", "+inf", "infinity", "abc", "Abc", "-", "x1", "1x", " 1"}
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(40)
		keys := make([]string, n)
		envs := make([]Env, n)
		for i := range keys {
			keys[i] = pool[r.Intn(len(pool))]
			envs[i] = Env{"x": {&xmltree.Node{Start: i}}}
		}
		for _, desc := range []bool{false, true} {
			want := make([]int, n)
			for i := range want {
				want[i] = i
			}
			sort.SliceStable(want, func(a, b int) bool {
				if desc {
					return OrderKeyLess(keys[want[b]], keys[want[a]])
				}
				return OrderKeyLess(keys[want[a]], keys[want[b]])
			})
			got := SortByKeys(append([]Env(nil), envs...), keys, desc)
			for i, env := range got {
				if j := env["x"][0].Start; j != want[i] {
					t.Fatalf("trial %d desc=%v: position %d holds key %q (#%d), OrderKeyLess puts %q (#%d) there\nkeys %q",
						trial, desc, i, keys[j], j, keys[want[i]], want[i], keys)
				}
			}
		}
	}
}

// TestOrderKeyLess pins the order-by comparator's edge behaviour:
// numeric comparison whenever both keys parse as floats (so "9" sorts
// before "10" and leading zeros or an explicit sign don't change the
// value), lexicographic comparison as soon as either side is
// non-numeric (including the empty key an absent order-by path yields).
func TestOrderKeyLess(t *testing.T) {
	cases := []struct {
		name string
		a, b string
		ab   bool // OrderKeyLess(a, b)
		ba   bool // OrderKeyLess(b, a)
	}{
		{"numeric not lexicographic", "9", "10", true, false},
		{"decimal", "2.5", "2.50", false, false},
		{"leading zeros equal", "007", "7", false, false},
		{"leading zeros ordered", "008", "07", false, true},
		{"plus sign equals bare", "+1", "1", false, false},
		{"negative before positive", "-2", "1", true, false},
		{"negatives reverse magnitude", "-10", "-2", true, false},
		{"empty key before zero", "", "0", true, false},
		{"empty key before space", "", " ", true, false},
		{"empty keys equal", "", "", false, false},
		{"number vs string is lexicographic", "10", "abc", true, false},
		{"string vs number digit-first", "abc", "5", false, true},
		{"strings lexicographic", "apple", "banana", true, false},
		{"identical strings", "x", "x", false, false},
		{"whitespace not numeric", " 1", "2", true, false},
		{"sign only is a string", "-", "+", false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := OrderKeyLess(tc.a, tc.b); got != tc.ab {
				t.Errorf("OrderKeyLess(%q, %q) = %v, want %v", tc.a, tc.b, got, tc.ab)
			}
			if got := OrderKeyLess(tc.b, tc.a); got != tc.ba {
				t.Errorf("OrderKeyLess(%q, %q) = %v, want %v", tc.b, tc.a, got, tc.ba)
			}
			if tc.ab && tc.ba {
				t.Errorf("comparator not asymmetric on (%q, %q)", tc.a, tc.b)
			}
		})
	}
}
