package core

import "errors"

// ErrOutsideFragment marks query constructs that parse but cannot be
// expressed in the BlossomTree pattern fragment (function predicates,
// non-rewritable parent/ancestor edges, a positional variable in a FLWOR
// with several for-clauses, positional predicates under nested //-cuts,
// …). The positional variable of a FLWOR's one for-clause is inside it:
// the executor numbers the rows in iteration order. Compilation and
// planning errors wrap it with %w; the executor treats it as a routing
// signal rather than a failure, compiling such queries to a cached
// navigational fallback that still flows through the plan cache,
// EXPLAIN, governance and the daemon.
var ErrOutsideFragment = errors.New("outside the BlossomTree fragment")
