// The benchmark is a module of its own so that it builds from its own
// directory; the import path keeps the blossomtree/ prefix, which is what
// lets it reach blossomtree/internal/... for the traced run.
module blossomtree/benchmark

go 1.22

require blossomtree v0.0.0

replace blossomtree => ../
