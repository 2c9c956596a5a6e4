// Package core implements the paper's primary contribution: the
// BlossomTree formalism (Definition 1) — an annotated directed graph of
// interconnected pattern trees whose vertices carry tag-name and value
// constraints and may be bound to variables (blossoms), and whose edges
// carry a relationship/mode annotation ⟨r, m⟩ — together with the
// returning-tree extraction of §4.1 and the decomposition of a
// BlossomTree into interconnected NoK pattern trees (Algorithm 1).
//
// The paper addresses returning nodes by global Dewey IDs; here every
// NestedList operator takes a returning node's slot (ReturnNode.Slot,
// a dense index) and its Path of child ordinals. The Dewey ID survives
// only as a printed label (the #1.1.2 of Vertex.String and EXPLAIN).
package core

import (
	"strconv"
	"strings"
)

// Dewey is a Dewey identifier assigned to a returning node of a
// BlossomTree: the path of ordinals from the artificial super-root
// (which is always Dewey "1"). It is a label for printing; operators
// address returning nodes by slot.
type Dewey []int

// String renders the dotted form, e.g. "1.1.2".
func (d Dewey) String() string {
	if len(d) == 0 {
		return ""
	}
	var sb strings.Builder
	for i, n := range d {
		if i > 0 {
			sb.WriteByte('.')
		}
		sb.WriteString(strconv.Itoa(n))
	}
	return sb.String()
}

// Child returns d extended with ordinal i.
func (d Dewey) Child(i int) Dewey {
	out := make(Dewey, len(d)+1)
	copy(out, d)
	out[len(d)] = i
	return out
}
