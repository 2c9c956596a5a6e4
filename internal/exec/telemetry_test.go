package exec

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"testing"

	"blossomtree/internal/plan"
	"blossomtree/internal/xmltree"
)

// TestQueryLogRowsOut pins the query log's rows_out to the result's row
// count: binding rows for a FLWOR (none, when the where clause keeps no
// iteration, however many instances the plan produced) and result nodes
// for a path query.
func TestQueryLogRowsOut(t *testing.T) {
	doc, err := xmltree.ParseString(`<bib>
<book><title>A</title></book>
<book><title>B</title></book>
<book><title>C</title></book>
</bib>`)
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	e.Add("bib.xml", doc)
	for _, c := range []struct {
		query string
		rows  int
	}{
		{`for $b in //book where count($b/title) > 5 return $b`, 0},
		{`//book/title`, 3},
	} {
		var buf bytes.Buffer
		res, err := e.EvalOptions(c.query, plan.Options{Logger: slog.New(slog.NewJSONHandler(&buf, nil))})
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		if res.Len() != c.rows {
			t.Fatalf("%s: %d rows, want %d", c.query, res.Len(), c.rows)
		}
		var rec struct {
			RowsOut int `json:"rows_out"`
		}
		if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
			t.Fatalf("%s: log record %q: %v", c.query, buf.String(), err)
		}
		if rec.RowsOut != c.rows {
			t.Errorf("%s: rows_out = %d, want %d (%d instances)", c.query, rec.RowsOut, c.rows, res.Instances.Len())
		}
	}
}
