// Command blossom evaluates an XPath or FLWOR query against an XML file
// using the BlossomTree engine.
//
// Usage:
//
//	blossom -file bib.xml '//book[author/last="Knuth"]/title'
//	blossom -file bib.xml -strategy twigstack -explain '//a[//b]//c'
//	blossom -file bib.xml 'for $b in doc("bib.xml")//book where $b/price < 50 return <t>{ $b/title }</t>'
//
// The query's doc("…") URIs all resolve to the loaded file. Path-query
// results are printed one serialized node per line; FLWOR queries with
// constructors print the constructed document; other FLWOR queries print
// one row of variable bindings per iteration.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"sort"
	"strings"

	"blossomtree"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams injected; it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("blossom", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		file      = fs.String("file", "", "XML document to query (required)")
		strategy  = fs.String("strategy", "auto", "join strategy: auto (the cost model's choice), pipelined, bounded-nl, twigstack, navigational; the deprecated cost and vectorized run auto")
		explain   = fs.Bool("explain", false, "execute the query and print the annotated plan tree (cost estimates next to actual counters and timings)")
		explOnly  = fs.Bool("explain-only", false, "print the plan with estimates only, without executing")
		metrics   = fs.Bool("metrics", false, "print the engine metrics registry after the run")
		indent    = fs.Bool("indent", false, "pretty-print XML output")
		quiet     = fs.Bool("count", false, "print only the result count")
		timeout   = fs.Duration("timeout", 0, "abort the query after this wall-clock duration (0 = no limit)")
		maxNodes  = fs.Int64("max-nodes", 0, "abort after scanning this many document/index nodes (0 = no limit)")
		maxOutput = fs.Int64("max-output", 0, "abort after producing this many result tuples (0 = no limit)")
		repeat    = fs.Int("repeat", 1, "run the query N times: the first run compiles it and later runs hit the plan cache (an Auto plan whose estimates drifted replans on run 2)")
		logQuery  = fs.Bool("log", false, "emit the structured query-log record (the daemon's pipeline) to stderr")
		slow      = fs.Duration("slow-query", 0, "log the query at Warn with its EXPLAIN ANALYZE tree when at/past this latency (implies -log; 0 = off)")
		dataDir   = fs.String("data", "", "persistent segment store directory: the file persists here and unchanged files are served from their segments without re-parsing; usable alone to query an existing store")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: blossom -file doc.xml [flags] 'query'\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*file == "" && *dataDir == "") || fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	query := fs.Arg(0)
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "blossom:", err)
		// A governed abort (timeout, budget, Ctrl-C) carries the partial
		// EXPLAIN ANALYZE tree recorded up to the abort point.
		if st, ok := blossomtree.AbortStats(err); ok {
			fmt.Fprint(stderr, "-- partial plan statistics at abort --\n"+st)
		}
		return 1
	}

	eng := blossomtree.NewEngine()
	var store *blossomtree.SegmentStore
	if *dataDir != "" {
		st, err := blossomtree.OpenStore(*dataDir)
		if err != nil {
			return fatal(fmt.Errorf("-data %s: %v", *dataDir, err))
		}
		store = st
		for _, w := range store.Warnings() {
			fmt.Fprintln(stderr, "blossom: segment store:", w)
		}
	}
	switch {
	case *file == "":
		// Store-only mode: the query's doc("…") URIs resolve against the
		// persisted catalog.
	case store != nil && store.UpToDate(*file, *file):
		// Unchanged since it was persisted: served out of the store.
	default:
		if err := eng.LoadFile(*file, *file); err != nil {
			return fatal(err)
		}
		if store != nil {
			if err := eng.PersistFile(store, *file, *file); err != nil {
				return fatal(fmt.Errorf("persist %q: %v", *file, err))
			}
		}
	}
	if store != nil {
		eng.AttachStore(store)
	}

	opts := blossomtree.Options{
		Strategy: blossomtree.Strategy(*strategy),
		Budget: blossomtree.Budget{
			MaxNodes:  *maxNodes,
			MaxOutput: *maxOutput,
			Timeout:   *timeout,
		},
	}
	if *logQuery || *slow > 0 {
		opts.Logger = slog.New(slog.NewTextHandler(stderr, nil))
		opts.SlowQueryThreshold = *slow
	}

	// Ctrl-C cancels the in-flight query through the governor rather
	// than killing the process: the engine unwinds with ErrCanceled and
	// the partial operator statistics are printed below.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	// report prints what -metrics asks for: the process's counters.
	report := func() {
		if *metrics {
			fmt.Fprint(stdout, "-- metrics --\n"+blossomtree.FormatMetrics(blossomtree.Metrics()))
		}
	}
	if *explOnly || *explain {
		opts.Analyze = *explain
		s, err := eng.ExplainWithContext(ctx, query, opts)
		if err != nil {
			return fatal(err)
		}
		fmt.Fprint(stdout, s)
		if *explain {
			report()
		}
		return 0
	}

	var res *blossomtree.Result
	var err error
	for i := 0; i < max(*repeat, 1); i++ {
		if res, err = eng.QueryWithContext(ctx, query, opts); err != nil {
			return fatal(err)
		}
	}
	defer report()
	if *quiet {
		fmt.Fprintln(stdout, res.Len())
		return 0
	}
	switch {
	case len(res.Nodes()) > 0:
		for _, n := range res.Nodes() {
			fmt.Fprintln(stdout, n.XML())
		}
	case res.XML() != "":
		if *indent {
			fmt.Fprintln(stdout, res.XMLIndent())
		} else {
			fmt.Fprintln(stdout, res.XML())
		}
	default:
		for i, row := range res.Rows() {
			var vars []string
			for v := range row {
				vars = append(vars, v)
			}
			sort.Strings(vars)
			var parts []string
			for _, v := range vars {
				vals := make([]string, len(row[v]))
				for k, n := range row[v] {
					vals[k] = n.XML()
				}
				parts = append(parts, fmt.Sprintf("$%s=%s", v, strings.Join(vals, ",")))
			}
			fmt.Fprintf(stdout, "row %d: %s\n", i+1, strings.Join(parts, " "))
		}
	}
	return 0
}
