package exec

import (
	"fmt"
	"sort"
	"strings"

	"blossomtree/internal/xmltree"
)

// Canonical serializes a result into a canonical byte form: constructed
// output first, then the nodes a FLWOR without constructors returned,
// then node results, then environment rows with variables in sorted
// order. Two equivalent evaluations must produce identical
// strings, so differential harnesses (the in-package strategy matrix and
// the proptest package's randomized runs) compare results with ==.
func Canonical(res *Result) string {
	var sb strings.Builder
	if res.Output != nil {
		sb.WriteString("output: ")
		sb.WriteString(res.Output.Serialize(xmltree.WriteOptions{}))
		sb.WriteByte('\n')
	}
	for _, n := range res.Returned {
		sb.WriteString("returned: ")
		sb.WriteString(xmltree.Serialize(n, xmltree.WriteOptions{}))
		sb.WriteByte('\n')
	}
	for _, n := range res.Nodes {
		sb.WriteString("node: ")
		sb.WriteString(xmltree.Serialize(n, xmltree.WriteOptions{}))
		sb.WriteByte('\n')
	}
	for i, env := range res.Envs() {
		names := make([]string, 0, len(env))
		for v := range env {
			names = append(names, v)
		}
		sort.Strings(names)
		fmt.Fprintf(&sb, "row %d:", i)
		for _, v := range names {
			vals := make([]string, len(env[v]))
			for k, n := range env[v] {
				vals[k] = xmltree.Serialize(n, xmltree.WriteOptions{})
			}
			fmt.Fprintf(&sb, " $%s=[%s]", v, strings.Join(vals, ","))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
