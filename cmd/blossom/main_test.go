package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// volatile matches what differs from run to run in the CLI's output:
// clock readings and the process-unique query ID.
var volatile = regexp.MustCompile(`\b(time|query_id|latency)=\S+`)

// golden compares got, with the volatile fields blanked, against
// testdata/name.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	got = volatile.ReplaceAll(got, []byte("$1=…"))
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

// blossom runs the CLI on testdata/bib.xml and returns its two streams.
func blossom(t *testing.T, args ...string) (stdout, stderr []byte) {
	t.Helper()
	var out, errs bytes.Buffer
	args = append([]string{"-file", filepath.Join("testdata", "bib.xml")}, args...)
	if code := run(args, &out, &errs); code != 0 {
		t.Fatalf("blossom %q: exit %d, stderr: %s", args, code, &errs)
	}
	return out.Bytes(), errs.Bytes()
}

const byStevens = `//book[author/last="Stevens"]/title`

func TestCount(t *testing.T) {
	stdout, stderr := blossom(t, "-count", `//book[price < 100]//last`)
	if len(stderr) != 0 {
		t.Errorf("unexpected stderr: %s", stderr)
	}
	golden(t, "count.golden", stdout)
}

func TestExplainOnly(t *testing.T) {
	stdout, _ := blossom(t, "-explain-only", `for $b in doc("bib.xml")//book where $b/price < 50 return <cheap>{ $b/title }</cheap>`)
	golden(t, "explain_only.golden", stdout)
}

// TestRepeat pins the prepared-statement path: the query is compiled
// once, at Prepare, into the engine's own plan cache, and each of the
// three runs logs a record served from it. The first run observes 2 of
// the 4 books it estimated, so the second run replans once (drift 2)
// and the third runs the replanned template.
func TestRepeat(t *testing.T) {
	stdout, stderr := blossom(t, "-repeat", "3", "-log", byStevens)
	golden(t, "repeat.golden", append(stdout, stderr...))
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{}, {"-no-such-flag"}, {"-file", "testdata/bib.xml"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-file", "testdata/bib.xml", `//book[`}, &stdout, &stderr); code != 1 {
		t.Errorf("malformed query: exit %d, want 1", code)
	}
}
