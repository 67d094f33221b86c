package fleet

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"lesslog/internal/gateway"
	"lesslog/internal/metrics"
	"lesslog/internal/netnode"
)

// metricTable renders a snapshot type's declarations as the Markdown table
// the docs carry: one row per series.
func metricTable(snapshot any) string {
	var b strings.Builder
	b.WriteString("| Family | Label | Type | JSON key | Fleet merge |\n|---|---|---|---|---|\n")
	for _, d := range metrics.Declarations(snapshot) {
		label, merge := "", ""
		if d.Label != "" {
			label = "`" + d.Label + "`"
		}
		if d.Merge != "" {
			merge = d.Merge
			if d.As != d.Key {
				merge += " → `" + d.As + "`"
			}
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | `%s` | %s |\n", d.Family, label, d.Type, d.Key, merge)
	}
	return b.String()
}

// TestDocsListDeclaredMetrics keeps the metric tables in the docs equal to
// the declarations: a family the code declares and the doc lacks, or the
// other way round, fails here with the table to paste.
func TestDocsListDeclaredMetrics(t *testing.T) {
	for _, doc := range []struct {
		file, block string
		snapshot    any
	}{
		{"../../docs/OBSERVABILITY.md", "peer", netnode.StatSnapshot{}},
		{"../../docs/GATEWAY.md", "gateway", gateway.StatSnapshot{}},
	} {
		raw, err := os.ReadFile(doc.file)
		if err != nil {
			t.Fatal(err)
		}
		begin, end := "<!-- metrics:"+doc.block+" begin -->\n", "<!-- metrics:"+doc.block+" end -->"
		_, rest, found := strings.Cut(string(raw), begin)
		have, _, closed := strings.Cut(rest, end)
		if !found || !closed {
			t.Errorf("%s has no %q … %q block", doc.file, strings.TrimSpace(begin), end)
			continue
		}
		if want := metricTable(doc.snapshot); have != want {
			t.Errorf("%s: the %s metric table is not the one the declarations generate; replace it with:\n%s", doc.file, doc.block, want)
		}
	}
}
