# BlossomTree build/verify tiers.
#
#   make build   — compile everything
#   make test    — tier-1 verify: build + full test suite
#   make check   — tier-2 verify: go vet + race-detector test run
#                  (includes the cancellation stress pass)
#   make stress  — cancellation/fault-injection stress under -race,
#                  incl. admission control (shed, 429, client cancel)
#   make smoke   — boot blossomd, query it over HTTP, scrape /metrics
#   make persist — persistent segment store suite: codec round-trips,
#                  crash-safety (torn/bit-flipped segments quarantined),
#                  restart differential, daemon -data round-trip
#   make benchbuild — vet + test the nested benchmark/ module against
#                  the current API (root `go build ./...` skips it)
#   make lint-refs — fail if a file still points at the retired second
#                  benchmark harness, names one of the process-wide
#                  globals the engines' own state replaced, the retired
#                  shard tier or feedback store, TwigStack's path
#                  solutions, string-keyed matches or row-to-NestedList
#                  adapter, the vectorized
#                  executor, or brings back unsafe, a finalizer or the
#                  mapped-column names, or a merge in join/nok that reads
#                  a stream head's labels through its node, the
#                  retired where-condition types, grammar or evaluator,
#                  the deleted compact NestedList form and its
#                  Dewey-addressed lookups, the rule-based strategy
#                  chooser and the CostBased plan strategy, a second copy
#                  of an evaluation's record, the naive nested-loop
#                  plan strategy, or the FLWOR tail's per-row Env dedup
#                  and deep copy into constructed output, or the
#                  index-less engine, the merged scan and their knobs,
#                  or the batch, per-document and prepared entry points
#                  and the CRC-less segment loader, or the preorder and
#                  subtree NoK scans and the index-anchor rule, or the
#                  bounded nested-loop join's own operator, its helpers
#                  and fault site, or naveval's ungoverned wrappers
#   make bench   — micro, ablation and concurrency benchmarks (the
#                  paper's tables are `bash benchmark/run.sh`)
#   make fuzz    — parser fuzz smoke (FUZZTIME per target, default 30s)
#   make proptest — randomized differential harness (PROPSEED,
#                  PROPCASES control the base seed and case count)

GO ?= go
FUZZTIME ?= 30s
# Base seed for the property harness. The default pins CI; override to
# replay a failure (every failure report prints its per-case seed, which
# replays with PROPSEED=<seed> PROPCASES=1).
PROPSEED ?= 0xB10550
PROPCASES ?= 2500

.PHONY: build test vet race check stress smoke bench fuzz proptest persist benchbuild lint-refs

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Tier-2 verify (referenced by ROADMAP.md): static analysis plus the
# full suite under the race detector, which exercises the concurrent
# Add+Eval stress tests against the snapshot engine, plus the
# cancellation stress pass.
check: vet lint-refs race stress smoke proptest persist benchbuild

# Property-based differential harness: PROPCASES random documents, four
# random queries each, every join strategy ± warm plan cache
# compared byte-for-byte against the navigational oracle; then the
# forced-pipelined leg, PROPCASES non-recursive documents against a fixed
# query list covering every emission mode of the pipelined join (random
# tags almost never give a non-recursive document). The default seed is
# fixed so `make check` is deterministic; CI also runs a randomized-seed
# job (see .github/workflows/ci.yml) that logs the seed on failure.
proptest:
	$(GO) test ./internal/proptest \
		-run 'TestRandomizedDifferential|TestPipelinedOnNonRecursiveDocuments' \
		-proptest.seed $(PROPSEED) -proptest.cases $(PROPCASES) -v

# Cancellation/fault-injection stress: mid-flight cancellation of
# concurrent and all-documents evaluation, scripted operator panics, and
# budget aborts, repeated under the race detector so governor state and worker
# draining are exercised across interleavings. The pipelined join's
# linearity, allocation, skip and governor-parity tests ride along, as do
# the bounded nested loop's (the same join rescanning its inner), and
# so does admission control: token bucket, weighted-fair queue, injected
# and quota sheds (429/Retry-After) and client cancels (499). So does the
# feedback loop: replan at the first cache hit, once per template, per
# pinned document, never for forced strategies, under concurrent hits,
# and never for a skipping scan.
stress:
	$(GO) test -race -timeout 120s -count=3 \
		-run 'MidFlight|PreCanceled|PanicRecovery|Canceled|Budget|Fault|FailAt|PanicAt|Injector|Hits|PreparedRace|PlanCache|Feedback|SkippingScan|Pipelined|SkipTo|BoundedNL|BNLJ|Rescan|Admission|Shed|ClientCanceled' \
		./internal/exec ./internal/plan ./internal/join ./internal/nok ./internal/gov ./internal/fault ./internal/server .

# Daemon smoke: build blossomd, boot it on a random port, POST one
# query, assert the /metrics latency histogram recorded it and the
# query's /trace is retrievable, then require a clean SIGTERM exit.
smoke:
	sh scripts/smoke_blossomd.sh

# Persistent segment store: the codec round-trip / crash-safety /
# eviction unit suite, the hardened storage decode, the restart
# differential (every strategy, byte-identical results across a
# persist→reopen cycle, and a store the previous release wrote), and the
# daemon's -data round-trip (collision refusal, persist on load,
# serve-from-store on restart).
persist:
	$(GO) test -race -timeout 180s ./internal/segstore ./internal/storage
	$(GO) test -race -timeout 180s -count=1 \
		-run 'Restart|AttachStore|Persist' .
	$(GO) test -timeout 180s -count=1 \
		-run 'TestLoadBasenameCollision|TestDataDirRestart' ./cmd/blossomd

# benchmark/ is a module of its own, so the root ./... patterns never
# compile it: an API removal the ruler depends on would otherwise only
# surface when the benchmark next runs.
benchbuild:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# The repository has one benchmark (benchmark/, BENCHMARK.json). The
# second harness was retired; only the change log, the roadmap's history
# and the benchmark's own README may still name it. (The bracketed last
# letters keep this rule from matching itself.) Likewise the plan cache,
# the feedback history, the trace ring and the snapshot-version counter
# belong to an engine: the package variables they used to be, and the
# reset hooks tests needed because of them, must not come back. Nor may
# what left with the mapped segment columns: no non-test Go file imports
# unsafe or sets a finalizer, and the constructors that wrapped mapped
# arrays stay gone. One process serves one engine: the in-process shard
# tier and the names only it needed do not come back, and neither does
# the hash-keyed feedback store the plan cache replaced. TwigStack runs in
# one pass over per-vertex lists: its path solutions and the string-keyed
# matches and merge keys built from them stay gone, and its rows reach
# the executor as rows, not rebuilt as NestedLists. So does the
# vectorized executor, with its column projections, batch counter, fault
# site and plan strategy. Index postings carry their region labels in
# columns: the merges and skips in join and nok read a stream head's
# labels from them (HeadStart, HeadEnd, HeadLevel), not from its node.
# Where-clauses are xpath.Expr trees read by the predicate grammar's
# where mode: the FLWOR package's own condition types, its condition
# grammar and naveval's condition evaluator do not come back. NestedList
# instances have one physical form and every operator takes a slot: the
# Figure-6 compact form and the Dewey-keyed lookups do not come back.
# Auto is the cost model: the §5.2 rule path (nokStrategy), the second
# chooser it needed (plan.CostBased) and the per-call TwigStack
# compatibility string (twigIncompatibility) do not come back. An
# evaluation has one record, obs.QueryRecord, that the query log, the
# ring of recent queries, the Result and the daemon's reply read: the
# query-log entry and logger types, the ring of pre-rendered traces, its
# test-only span-name list, the second pass over the stats tree for the
# registry and the second row-count rule do not come back. Nor does the
# naive nested-loop plan strategy no option could select
# (join.NestedLoopJoin stays: crossings and for-clause products run on it).
# A FLWOR's rows are slot rows and its constructed output references its
# source nodes: the per-row Env dedup (dedupEnvs) and the deep copy of
# every returned subtree (copyInto) do not come back. Every document has
# its tag index: the index-less engine, its constructor and flags, and
# the merged scan only it could run do not come back. A query runs one
# of two ways, on one document or gathered over all of them, and the
# plan cache is how a compiled query is reused: the batch, the
# per-document fan-out and the prepared statement do not come back, nor
# does the second, CRC-less persisted form the segment store replaced.
# A NoK scan has one access path, its root's postings in the tag index:
# the sequential and subtree preorder walks, their constructors and the
# rule that chose between them and the index do not come back. There is
# one //-join operator: the bounded nested loop is the pipelined join
# re-reading its inner inside each outer instance's region, so its own
# operator, the balanced batch merge and witness re-test it filled with,
# its fault site and the iterator's second scan counter do not come back;
# and naveval has one governed entry point per evaluator (a nil governor
# runs ungoverned), not a wrapper per (bindings × governor) combination.
lint-refs:
	@if git grep -n -e 'internal/benc[h]' -e 'blossombenc[h]' -e 'BENCH_result[s]' -- \
		':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md' ':!benchmark/'; then \
		echo "lint-refs: stale reference to the retired benchmark harness"; exit 1; fi
	@if git grep -n -e 'sharedPlanCach[e]' -e 'feedback\.Share[d]' -e 'DefaultTrace[s]' \
		-e 'ResetPlanCach[e]' -e 'ResetFeedbac[k]' -e 'snapshotVersion[s]' -- \
		':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md' ':!benchmark/'; then \
		echo "lint-refs: reference to a process-wide global that engine-owned state replaced"; exit 1; fi
	@if git grep -n -e '^[[:space:]]*"unsaf[e]"$$' -e 'import "unsaf[e]"' -e 'runtime\.SetFinalize[r]' -- '*.go' ':!*_test.go'; then \
		echo "lint-refs: non-test Go imports unsafe or sets a finalizer"; exit 1; fi
	@if git grep -n -e 'mmapFil[e]' -e 'NewColumnSe[t]' -e 'FromColumn[s]' -- \
		':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md' ':!benchmark/'; then \
		echo "lint-refs: reference to the mapped segment columns a stored document no longer has"; exit 1; fi
	@if git grep -n -e 'internal/shar[d]' -e 'NewEngineShar[d]ed' -e 'ShardCoun[t]' -e 'DocumentShar[d]' \
		-e 'DegradedInf[o]' -e 'shard\.Grou[p]' -e 'DrainAl[l]' -- \
		':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md' ':!benchmark/'; then \
		echo "lint-refs: reference to the retired in-process shard tier"; exit 1; fi
	@if git grep -n -e 'internal/feedbac[k]' -e 'SetFeedbackTrigge[r]' -e 'PersistFeedbac[k]' \
		-e 'RestoreFeedbac[k]' -e 'FeedbackSummarie[s]' -e 'feedback-drift-threshol[d]' \
		-e 'feedback-min-sample[s]' -- \
		':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md' ':!benchmark/'; then \
		echo "lint-refs: reference to the retired feedback store"; exit 1; fi
	@if git grep -n -e 'TwigMatc[h]' -e 'twigKe[y]' -e 'prefixKe[y]' -e 'pathStac[k]' -- \
		'*.go' ':!benchmark/'; then \
		echo "lint-refs: reference to TwigStack's retired path solutions or string-keyed matches"; exit 1; fi
	@if git grep -n -e 'rowItem[s]' -- ':!*.md' ':!benchmark/'; then \
		echo "lint-refs: reference to the retired adapter that rebuilt TwigStack rows as NestedLists"; exit 1; fi
	@if git grep -n -e 'internal/vexe[c]' -e 'ColumnSe[t]' -e 'SiteVexe[c]' -e 'AddBatche[s]' \
		-e 'buildVectorize[d]' -e 'plan\.Vectorize[d]' -- \
		':!*.md' ':!benchmark/'; then \
		echo "lint-refs: reference to the retired vectorized executor"; exit 1; fi
	@if git grep -n -E -e 'headStart' -e 'Head\(\)\.(Start|End|Level)' -- \
		'internal/join/*.go' 'internal/nok/*.go' ':!*_test.go'; then \
		echo "lint-refs: a stream head's labels read through its node, not the label columns"; exit 1; fi
	@if git grep -n -e 'flwor\.Con[d]' -e 'CondAn[d]' -e 'CondO[r]' -e 'CondNo[t]' -e 'CondCm[p]' \
		-e 'CondDocOrde[r]' -e 'CondDeepEqua[l]' -e 'CondExist[s]' -e 'CondBoo[l]' -e 'parseCon[d]' \
		-e 'condOperandValue[s]' -- '*.go'; then \
		echo "lint-refs: reference to the retired where-condition types, grammar or evaluator"; exit 1; fi
	@if git grep -n -E -e 'FromLis[t]' -e '[Bb]yDewe[y]' -e 'ParseDewe[y]' -e 'ProjectAl[l]' \
		-e 'nestedlist\.Compac[t]([^[:alnum:]_]|$$)' -e '(type |\*)Compac[t]([^[:alnum:]_]|$$)' -- '*.go'; then \
		echo "lint-refs: reference to the deleted compact NestedList form or a Dewey-addressed lookup"; exit 1; fi
	@if git grep -n -E -e 'plan\.CostBase[d]' -e 'nokStrateg[y]' -e 'twigIncompatibilit[y]' -- '*.go' || \
		git grep -n -E -e '(^|[^[:alnum:]_.])CostBase[d]([^[:alnum:]_]|$$)' -- 'internal/plan/*.go'; then \
		echo "lint-refs: reference to the retired rule-based strategy chooser or the CostBased plan strategy"; exit 1; fi
	@if git grep -n -E -e 'QueryLogEntr[y]' -e 'obs\.QueryLo[g]([^[:alnum:]_]|$$)' -e 'TraceStor[e]' \
		-e 'SpanName[s]' -e 'recordPlanMetric[s]' -e 'rowsOu[t]' -- \
		'*.go' README.md DESIGN.md EXPERIMENTS.md ':!benchmark/'; then \
		echo "lint-refs: reference to a second copy of an evaluation's record (obs.QueryRecord is the one)"; exit 1; fi
	@if git grep -n -E -e 'plan\.NaiveN[L]' -- '*.go' || \
		git grep -n -E -e '(^|[^[:alnum:]_.])NaiveN[L]([^[:alnum:]_]|$$)' -- 'internal/plan/*.go'; then \
		echo "lint-refs: reference to the retired naive nested-loop plan strategy"; exit 1; fi
	@if git grep -n -e 'dedupEnv[s]' -e 'copyInt[o]' -- '*.go' ':!*_test.go'; then \
		echo "lint-refs: reference to the retired per-row Env dedup or the deep copy into constructed output"; exit 1; fi
	@if git grep -n -e 'NewEngineNoIndexe[s]' -e 'MergeScan[s]' -e 'MultiSca[n]' -e 'NewWithConfi[g]' \
		-e 'BuildIndexe[s]' -e 'no-indexe[s]' -- '*.go' ':!*_test.go'; then \
		echo "lint-refs: reference to the retired index-less engine or the merged scan"; exit 1; fi
	@if git grep -n -e 'QueryBatchContex[t]' -e 'EvalBatc[h]' -e 'BatchResul[t]' \
		-e 'QueryAllDocumentsContex[t]' -e 'DocumentResul[t]' -e 'PrepareWit[h]' -e 'exec\.Prepare[d]' \
		-e 'RunContex[t]' -e 'LoadSegmen[t]' -e 'EncodeSegmen[t]' -- '*.go' ':!*_test.go'; then \
		echo "lint-refs: reference to a retired query entry point (batch, per-document, prepared) or the CRC-less segment loader"; exit 1; fi
	@if git grep -n -E -e 'NewSubtreeIterato[r]' -e 'NewTagIterato[r]' -e 'nok\.Sca[n]([^[:alnum:]_]|$$)' \
		-e 'indexAnchore[d]' -e 'NextPreorde[r]' -- '*.go' DESIGN.md EXPERIMENTS.md README.md ':!benchmark/'; then \
		echo "lint-refs: reference to a retired NoK access path (the preorder or subtree walk, or the index-anchor rule)"; exit 1; fi
	@if git grep -n -E -e 'join\.BoundedNLJoi[n]' -e '(type |\*)BoundedNLJoi[n]' -e 'MergeBalance[d]' -e 'pruneWitnessles[s]' \
		-e 'SiteBoundedN[L]' -e 'ScannedNode[s]' -e 'EvalPathEn[v]' -e 'EvalPathGo[v]' -e 'EvalFLWORGo[v]' \
		-e 'EvalCondGo[v]' -- '*.go' ':!*_test.go'; then \
		echo "lint-refs: reference to the retired bounded nested-loop operator, its helpers or fault site, or a retired naveval wrapper"; exit 1; fi

# Fuzzing: the parsers must not panic and every accepted input must
# round-trip through the printer; NestedList selection must only shrink
# projections, keep what the predicate keeps and never write into its
# input; the segment bytecode
# decoder must reject arbitrary corruption with ErrCorrupt, never a
# panic, and re-encode accepted inputs byte-identically; the segment
# file reader must do the same for whole file images, with and without
# a matching checksum; the XML parser must accept only documents whose
# labels and links agree with their tree and that re-parse, serialized,
# to a deep-equal tree (one seed is large enough to reach the Builder's
# node blocks). Seed corpora live under each package's testdata/fuzz
# directory or in the fuzz target.
fuzz:
	$(GO) test ./internal/xpath -run '^$$' -fuzz FuzzXPathParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/flwor -run '^$$' -fuzz FuzzFLWORParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/nestedlist -run '^$$' -fuzz FuzzSelectSlot -fuzztime $(FUZZTIME)
	$(GO) test ./internal/storage -run '^$$' -fuzz FuzzSegmentRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/segstore -run '^$$' -fuzz FuzzSegmentFile -fuzztime $(FUZZTIME)
	$(GO) test ./internal/xmltree -run '^$$' -fuzz FuzzXMLParse -fuzztime $(FUZZTIME)
