package fleet

// Golden tests of the operator surfaces: the family names, label sets and
// types a peer and a gateway put on /metrics, and the JSON key sets of the
// peer, gateway and cluster views. The files under testdata/ were captured
// before the counters were declared once (docs/OBSERVABILITY.md "Metric
// declarations"); a dashboard or scraper written against them keeps
// working for as long as these pass. They live here, not beside each
// surface, because this is the one package that imports all of them.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"lesslog/internal/gateway"
	"lesslog/internal/hashring"
	"lesslog/internal/netnode"
)

// surfaces drives a fixed script through a 4-peer fabric and a gateway in
// front of it, so every label value the surfaces carry (request kinds in
// the latency families, above all) is the same on every run.
func surfaces(t *testing.T) (*netnode.Peer, *gateway.Gateway, Cluster) {
	t.Helper()
	addrs, peers := startCluster(t, 4, 2)
	g, err := gateway.New(gateway.Config{Peers: addrs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })

	names := []string{"s/a", "s/b", "s/c", "s/d", "s/e", "s/f"}
	for _, n := range names {
		if _, err := g.Insert(n, []byte("payload-"+n)); err != nil {
			t.Fatal(err)
		}
	}
	for i, n := range names {
		if _, err := netnode.NewClient(addrs[i%len(addrs)]).Get(n); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Get(n); err != nil {
			t.Fatal(err)
		}
	}
	// The gateway enters each insert at the name's primary. A plain client
	// enters where it is pointed: an insert at another peer reaches the
	// primary by a placement, and a locate at P(0) walks on from there.
	target := int(hashring.FNV{}.Target("s/g", 2))
	entry := 1
	if entry == target {
		entry = 2
	}
	if err := netnode.NewClient(addrs[entry]).Insert("s/g", []byte("payload-s/g")); err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if _, err := netnode.NewLocateClient(addrs[0]).Locate(n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.Update("s/b", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Delete("s/c"); err != nil {
		t.Fatal(err)
	}
	return peers[0], g, Aggregate(Scrape(addrs), 3)
}

var (
	pidLabel = regexp.MustCompile(`pid="[0-9]+",?`)
	leLabel  = regexp.MustCompile(`,?le="[^"]*"`)
)

// promShape reduces a Prometheus exposition to what a scraper's queries
// depend on: the TYPE lines, and every series name with its label set —
// values, the per-process pid label and the bucket bounds dropped.
func promShape(text string) []string {
	set := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
			line = leLabel.ReplaceAllString(pidLabel.ReplaceAllString(line, ""), "")
			line = strings.TrimSuffix(strings.Replace(line, ",}", "}", 1), "{}")
		}
		set[line] = true
	}
	return sortedKeys(set)
}

// jsonShape is the key set of v's JSON form, one level of nesting deep
// ("outer.inner" for a key whose value is an object).
func jsonShape(t *testing.T, v any) []string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	for k, inner := range m {
		set[k] = true
		var nested map[string]json.RawMessage
		if json.Unmarshal(inner, &nested) == nil {
			for nk := range nested {
				set[k+"."+nk] = true
			}
		}
	}
	return sortedKeys(set)
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// checkGolden compares got with testdata/<name>, line by line as sets.
func checkGolden(t *testing.T, name string, got []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		want[line] = true
	}
	for _, line := range got {
		if !want[line] {
			t.Errorf("%s: surface gained %q", name, line)
		}
		delete(want, line)
	}
	for _, line := range sortedKeys(want) {
		t.Errorf("%s: surface lost %q", name, line)
	}
}

func TestSurfacesGolden(t *testing.T) {
	peer, g, cluster := surfaces(t)

	var buf bytes.Buffer
	peer.WritePrometheus(&buf)
	checkGolden(t, "peer_metrics.golden", promShape(buf.String()))
	buf.Reset()
	g.WritePrometheus(&buf)
	checkGolden(t, "gateway_metrics.golden", promShape(buf.String()))

	checkGolden(t, "peer_stat_keys.golden", jsonShape(t, peer.StatSnapshot()))
	checkGolden(t, "gateway_stat_keys.golden", jsonShape(t, g.StatSnapshot()))
	checkGolden(t, "cluster_keys.golden", jsonShape(t, cluster))
}
