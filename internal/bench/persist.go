package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"blossomtree/internal/exec"
	"blossomtree/internal/plan"
	"blossomtree/internal/segstore"
	"blossomtree/internal/xmlgen"
	"blossomtree/internal/xmltree"
)

// Cold-parse vs reopen: how much of a restart does the persistent
// segment store save? For each dataset the harness measures the
// time-to-first-result of a fresh engine that parses the XML text
// (what a daemon without -data pays on every start) against one that
// attaches a reopened segment store (manifest read + checksum stream +
// lazy mmap/decode on the probe query). The store's open-only time —
// the catalog-restore cost before any query arrives — is reported
// separately.

// PersistConfig configures the cold-parse vs reopen comparison.
type PersistConfig struct {
	Seed        int64
	TargetNodes map[string]int // per dataset; missing = default scale
	Datasets    []string       // default: all five
	Repeats     int            // runs per side, best-of; <= 0 = 3
}

// PersistRow is one dataset's restart comparison.
type PersistRow struct {
	Dataset  string
	Nodes    int64         // elements + texts in the generated document
	XMLBytes int64         // serialized source size
	SegBytes int64         // segment file size on disk
	Cold     time.Duration // parse text + probe query
	OpenOnly time.Duration // OpenDir: manifest + checksum streams
	Reopen   time.Duration // OpenDir + attach + probe query (mmap decode)
	Speedup  float64       // Cold / Reopen
}

// RunPersistCompare generates each dataset, persists it into a fresh
// store directory, and times cold parse against store reopen,
// best-of-Repeats on both sides.
func RunPersistCompare(cfg PersistConfig, progress func(string)) ([]PersistRow, error) {
	repeats := cfg.Repeats
	if repeats <= 0 {
		repeats = 3
	}
	datasets := cfg.Datasets
	if len(datasets) == 0 {
		datasets = Datasets()
	}
	tmp, err := os.MkdirTemp("", "blossom-persist-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	var rows []PersistRow
	for _, id := range datasets {
		suite, ok := suites[id]
		if !ok {
			return nil, fmt.Errorf("unknown dataset %q", id)
		}
		probe := suite[0].Text
		doc, err := xmlgen.Generate(id, xmlgen.Config{Seed: cfg.Seed, TargetNodes: cfg.TargetNodes[id]})
		if err != nil {
			return nil, err
		}
		stats := xmltree.ComputeStats(doc)
		xml := xmltree.Serialize(doc.Root, xmltree.WriteOptions{})
		uri := id + ".xml"

		dir := filepath.Join(tmp, id)
		st, err := segstore.OpenDir(dir, segstore.Options{})
		if err != nil {
			return nil, err
		}
		if err := st.Save(uri, doc, stats, nil); err != nil {
			return nil, err
		}
		if err := st.Close(); err != nil {
			return nil, err
		}
		var segBytes int64
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".seg") {
				if fi, err := e.Info(); err == nil {
					segBytes += fi.Size()
				}
			}
		}

		row := PersistRow{
			Dataset:  id,
			Nodes:    int64(stats.Nodes),
			XMLBytes: int64(len(xml)),
			SegBytes: segBytes,
		}

		// Cold: fresh engine, parse the text, answer the probe.
		for i := 0; i < repeats; i++ {
			start := time.Now()
			e := exec.New()
			d, err := xmltree.ParseString(xml)
			if err != nil {
				return nil, err
			}
			d.Name = uri
			e.Add(uri, d)
			if _, err := e.EvalOptions(probe, plan.Options{}); err != nil {
				return nil, err
			}
			if el := time.Since(start); row.Cold == 0 || el < row.Cold {
				row.Cold = el
			}
		}

		// Reopen: open the store (checksum stream), attach, answer the
		// probe off the mmap'd segment.
		for i := 0; i < repeats; i++ {
			start := time.Now()
			st, err := segstore.OpenDir(dir, segstore.Options{})
			if err != nil {
				return nil, err
			}
			opened := time.Since(start)
			e := exec.New()
			e.AttachStore(st)
			if _, err := e.EvalOptions(probe, plan.Options{}); err != nil {
				return nil, err
			}
			el := time.Since(start)
			if err := st.Close(); err != nil {
				return nil, err
			}
			if row.Reopen == 0 || el < row.Reopen {
				row.Reopen = el
				row.OpenOnly = opened
			}
		}
		if row.Reopen > 0 {
			row.Speedup = float64(row.Cold) / float64(row.Reopen)
		}
		if progress != nil {
			progress(fmt.Sprintf("%s: cold %v reopen %v (%.1fx)", id, row.Cold, row.Reopen, row.Speedup))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatPersist renders the comparison as an aligned table.
func FormatPersist(rows []PersistRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-4s %10s %10s %10s %12s %12s %12s %8s\n",
		"data", "nodes", "xml-bytes", "seg-bytes", "cold-parse", "open-only", "reopen", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-4s %10d %10d %10d %12s %12s %12s %7.1fx\n",
			r.Dataset, r.Nodes, r.XMLBytes, r.SegBytes,
			r.Cold.Round(time.Microsecond), r.OpenOnly.Round(time.Microsecond),
			r.Reopen.Round(time.Microsecond), r.Speedup)
	}
	return sb.String()
}
