package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"blossomtree/internal/xmltree"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs (rerun with -update after checking the change is intended)\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// TestList pins `xmlgen -list`: the Table 1 reference figures, each
// dataset's Appendix-A suite and the Table 2 categories.
func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, &stderr)
	}
	if stderr.Len() != 0 {
		t.Errorf("unexpected stderr: %s", &stderr)
	}
	golden(t, "list.golden", stdout.Bytes())
}

// TestStats pins the Table 1 row of a seeded d2 and checks the document
// on stdout is the one the row describes.
func TestStats(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-dataset", "d2", "-nodes", "500", "-seed", "1", "-stats"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, &stderr)
	}
	golden(t, "stats_d2.golden", stderr.Bytes())
	doc, err := xmltree.ParseString(stdout.String())
	if err != nil {
		t.Fatalf("stdout is not XML: %v", err)
	}
	// 735 nodes, 7 tags: the figures in stats_d2.golden (the byte size
	// is the generator's estimate, so it is not recomputed here).
	if s := xmltree.ComputeStats(doc); s.Nodes != 735 || s.Tags != 7 || s.Recursive {
		t.Errorf("emitted document has %d nodes, %d tags, recursive=%v; the reported row says 735, 7, N", s.Nodes, s.Tags, s.Recursive)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{}, {"-no-such-flag"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-dataset", "d9"}, &stdout, &stderr); code != 1 {
		t.Errorf("unknown dataset: exit %d, want 1", code)
	}
}
