package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"blossomtree/internal/exec"
	"blossomtree/internal/obs"
	"blossomtree/internal/plan"
	"blossomtree/internal/shard"
)

// ThroughputConfig configures a serial-vs-parallel batch throughput
// measurement: the same batch of queries is evaluated once on a single
// worker and once across Workers workers on a shared engine, and the
// two runs are compared.
type ThroughputConfig struct {
	Seed        int64
	TargetNodes map[string]int // per dataset; missing = default scale
	Datasets    []string       // default: all five
	Workers     int            // parallel worker count; <= 0 = GOMAXPROCS
	Rounds      int            // suite repetitions per batch; <= 0 = 20
	// Shards, when > 1, adds a scatter-gather comparison per dataset:
	// Shards copies of the document are served once by a flat engine's
	// catalog-wide fan-out and once through a shard group's scatter, and
	// the two QPS figures are compared (the shard tier's routing,
	// per-shard governors, and ordered merge are its overhead).
	Shards int
}

// ThroughputRow is the serial-vs-parallel comparison for one dataset.
type ThroughputRow struct {
	Dataset     string
	Queries     int // batch size (rounds × suite)
	Workers     int
	Serial      time.Duration
	Parallel    time.Duration
	SerialQPS   float64
	ParallelQPS float64
	Speedup     float64
	Errors      int
	// Cold and Warm time repeated compile passes (Prepare) over the
	// dataset's query suite: cold with the plan cache emptied before each
	// round so every Prepare runs the full compile pipeline, warm with
	// the cache populated so every Prepare is a hit. Both sides pay the
	// parse, so WarmSpeedup = Cold/Warm isolates the planning cost the
	// cache removes from a repeated query.
	Cold        time.Duration
	Warm        time.Duration
	WarmSpeedup float64
	// ScannedPerQuery and EmittedPerQuery are the average operator-level
	// nodes-scanned and instances-emitted per query of the serial run,
	// read from the metrics registry delta around the batch.
	ScannedPerQuery float64
	EmittedPerQuery float64
	// Sharded scatter comparison (zero unless ThroughputConfig.Shards
	// > 1): the same catalog-wide queries through the flat engine's
	// fan-out (AllDocsQPS) versus the shard group's scatter-gather
	// (ShardedQPS); ShardSpeedup = ShardedQPS / AllDocsQPS.
	Shards       int
	AllDocsQPS   float64
	ShardedQPS   float64
	ShardSpeedup float64
}

// RunThroughput measures batch throughput per dataset. Each dataset's
// Appendix-A suite is repeated Rounds times into one batch; the batch
// runs through exec.Engine.EvalBatch with 1 worker and again with
// cfg.Workers workers. A warm-up pass precedes the timed runs so both
// measure a hot engine.
func RunThroughput(cfg ThroughputConfig, progress func(string)) ([]ThroughputRow, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rounds := cfg.Rounds
	if rounds <= 0 {
		rounds = 20
	}
	datasets := cfg.Datasets
	if len(datasets) == 0 {
		datasets = Datasets()
	}
	var rows []ThroughputRow
	for _, id := range datasets {
		ds, err := LoadDataset(id, cfg.TargetNodes[id], cfg.Seed)
		if err != nil {
			return nil, err
		}
		eng := exec.New()
		eng.Add(ds.ID, ds.Doc)

		var batch []string
		for r := 0; r < rounds; r++ {
			for _, q := range Suite(id) {
				batch = append(batch, q.Text)
			}
		}
		if progress != nil {
			progress(fmt.Sprintf("dataset %s: %d elements, batch of %d queries (%d CPUs available)",
				id, ds.Stats.Elements, len(batch), runtime.NumCPU()))
		}

		opts := plan.Options{}
		row := ThroughputRow{Dataset: id, Queries: len(batch), Workers: workers}

		// Cold vs warm compile: Prepare the whole suite with the plan
		// cache emptied before each round (every Prepare runs the full
		// compile pipeline) versus with the cache left populated (every
		// Prepare is a lookup). The rounds keep both timings well above
		// clock noise, and each side takes its best of three repetitions
		// so a stray GC pause or scheduler preemption inside the
		// millisecond-scale window cannot flip the ratio. The last cold
		// round leaves the cache seeded, so the warm pass is hits
		// throughout.
		suite := Suite(id)
		compilePass := func(cold bool) (time.Duration, error) {
			const compileRounds = 20
			best := time.Duration(0)
			for rep := 0; rep < 3; rep++ {
				start := time.Now()
				for r := 0; r < compileRounds; r++ {
					if cold {
						exec.ResetPlanCache()
					}
					for _, q := range suite {
						if _, err := eng.Prepare(q.Text, opts); err != nil {
							return 0, fmt.Errorf("bench: compile %s on %s: %w", q.ID, id, err)
						}
					}
				}
				if d := time.Since(start); rep == 0 || d < best {
					best = d
				}
			}
			return best, nil
		}
		if row.Cold, err = compilePass(true); err != nil {
			return nil, err
		}
		if row.Warm, err = compilePass(false); err != nil {
			return nil, err
		}
		if row.Warm > 0 {
			row.WarmSpeedup = row.Cold.Seconds() / row.Warm.Seconds()
		}

		// Warm-up evaluation pass so the timed batch runs below measure a
		// hot engine, as before the compile columns existed.
		for _, q := range suite {
			if _, err := eng.Eval(q.Text); err != nil {
				return nil, fmt.Errorf("bench: warm-up %s on %s: %w", q.ID, id, err)
			}
		}

		before := obs.Default.Snapshot()
		start := time.Now()
		serial := eng.EvalBatch(batch, opts, 1)
		row.Serial = time.Since(start)
		if d := obs.Default.Delta(before); len(batch) > 0 {
			row.ScannedPerQuery = float64(d[obs.MetricNodesScanned]) / float64(len(batch))
			row.EmittedPerQuery = float64(d[obs.MetricInstancesOut]) / float64(len(batch))
		}

		start = time.Now()
		par := eng.EvalBatch(batch, opts, workers)
		row.Parallel = time.Since(start)

		for i := range serial {
			if serial[i].Err != nil || par[i].Err != nil {
				row.Errors++
			}
		}
		row.SerialQPS = qps(len(batch), row.Serial)
		row.ParallelQPS = qps(len(batch), row.Parallel)
		if row.Parallel > 0 {
			row.Speedup = row.Serial.Seconds() / row.Parallel.Seconds()
		}

		if cfg.Shards > 1 {
			if err := measureSharded(&row, ds, suite, cfg.Shards, workers, progress); err != nil {
				return nil, err
			}
		}
		if progress != nil {
			progress(fmt.Sprintf("  %s: compile cold %.4fs vs warm %.4fs (%.2f×), serial %.3fs (%.0f q/s), parallel[%d] %.3fs (%.0f q/s), speedup %.2f×, %.0f nodes scanned/query",
				id, row.Cold.Seconds(), row.Warm.Seconds(), row.WarmSpeedup,
				row.Serial.Seconds(), row.SerialQPS, workers,
				row.Parallel.Seconds(), row.ParallelQPS, row.Speedup, row.ScannedPerQuery))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// measureSharded times the scatter-gather comparison for one dataset:
// n copies of its document served by a flat engine's catalog-wide
// fan-out versus a shard group's scatter across n shards.
func measureSharded(row *ThroughputRow, ds *Dataset, suite []Query, shards, workers int, progress func(string)) error {
	row.Shards = shards
	flat := exec.New()
	grp := shard.New(shard.Config{Shards: shards, BuildIndexes: true})
	for i := 0; i < shards; i++ {
		uri := fmt.Sprintf("%s-copy-%d.xml", ds.ID, i)
		flat.Add(uri, ds.Doc)
		grp.Add(uri, ds.Doc)
	}
	opts := plan.Options{}
	// Warm-up plus correctness guard: both paths must agree before the
	// timed passes (one scatter per suite query).
	for _, q := range suite {
		if _, _, err := flat.EvalAllDocs(q.Text, opts, 0, workers); err != nil {
			return fmt.Errorf("bench: flat fan-out %s on %s: %w", q.ID, ds.ID, err)
		}
		if _, deg, err := grp.EvalAllDocs(q.Text, opts, 0, 1); err != nil || deg != nil {
			return fmt.Errorf("bench: sharded scatter %s on %s: err=%v degraded=%v", q.ID, ds.ID, err, deg != nil)
		}
	}
	const scatterRounds = 5
	start := time.Now()
	for r := 0; r < scatterRounds; r++ {
		for _, q := range suite {
			if _, _, err := flat.EvalAllDocs(q.Text, opts, 0, workers); err != nil {
				return err
			}
		}
	}
	flatD := time.Since(start)
	start = time.Now()
	for r := 0; r < scatterRounds; r++ {
		for _, q := range suite {
			if _, _, err := grp.EvalAllDocs(q.Text, opts, 0, 1); err != nil {
				return err
			}
		}
	}
	shardD := time.Since(start)
	n := scatterRounds * len(suite)
	row.AllDocsQPS = qps(n, flatD)
	row.ShardedQPS = qps(n, shardD)
	if row.AllDocsQPS > 0 {
		row.ShardSpeedup = row.ShardedQPS / row.AllDocsQPS
	}
	if progress != nil {
		progress(fmt.Sprintf("  %s: %d-copy scatter — flat fan-out %.0f q/s vs %d-shard %.0f q/s (%.2f×)",
			ds.ID, shards, row.AllDocsQPS, shards, row.ShardedQPS, row.ShardSpeedup))
	}
	return nil
}

func qps(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// FormatThroughput renders the serial-vs-parallel comparison table.
func FormatThroughput(rows []ThroughputRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-5s %8s %8s %10s %10s %7s %10s %10s %12s %12s %8s %7s %10s %8s\n",
		"file", "queries", "workers", "cold", "warm", "warmup", "serial", "parallel", "serial q/s", "parall q/s", "speedup", "errors", "scanned/q", "out/q")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-5s %8d %8d %9.4fs %9.4fs %6.2fx %9.3fs %9.3fs %12.0f %12.0f %7.2fx %7d %10.0f %8.1f\n",
			r.Dataset, r.Queries, r.Workers, r.Cold.Seconds(), r.Warm.Seconds(), r.WarmSpeedup,
			r.Serial.Seconds(), r.Parallel.Seconds(),
			r.SerialQPS, r.ParallelQPS, r.Speedup, r.Errors, r.ScannedPerQuery, r.EmittedPerQuery)
	}
	sharded := false
	for _, r := range rows {
		if r.Shards > 0 {
			sharded = true
		}
	}
	if sharded {
		fmt.Fprintf(&sb, "\n%-5s %7s %13s %13s %8s\n",
			"file", "shards", "alldocs q/s", "sharded q/s", "speedup")
		for _, r := range rows {
			if r.Shards == 0 {
				continue
			}
			fmt.Fprintf(&sb, "%-5s %7d %13.0f %13.0f %7.2fx\n",
				r.Dataset, r.Shards, r.AllDocsQPS, r.ShardedQPS, r.ShardSpeedup)
		}
	}
	return sb.String()
}
