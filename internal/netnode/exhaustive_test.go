package netnode

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"lesslog/internal/hashring"
)

// promFamilies parses the family names out of "# TYPE <name> <kind>"
// lines in a Prometheus exposition.
func promFamilies(t *testing.T, text string) []string {
	t.Helper()
	var fams []string
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 4 && fields[0] == "#" && fields[1] == "TYPE" {
			fams = append(fams, fields[2])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(fams) == 0 {
		t.Fatal("no # TYPE lines in Prometheus output")
	}
	return fams
}

// jsonKeys flattens a marshaled snapshot one level deep: top-level keys
// plus "<outer>.<inner>" for nested objects.
func jsonKeys(t *testing.T, v any) map[string]bool {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for k, inner := range m {
		keys[k] = true
		var nested map[string]json.RawMessage
		if json.Unmarshal(inner, &nested) == nil {
			for nk := range nested {
				keys[k+"."+nk] = true
			}
		}
	}
	return keys
}

// peerFamilyJSON maps every Prometheus family the peer emits to a JSON
// key of its stat snapshot carrying the same signal. A family missing
// from this table means someone added a counter to one surface and
// forgot the other — exactly the drift this test exists to catch.
var peerFamilyJSON = map[string]string{
	"lesslog_requests_total":              "requests",
	"lesslog_forwards_total":              "forwards",
	"lesslog_served_total":                "served",
	"lesslog_faults_total":                "faults",
	"lesslog_stored_total":                "stored",
	"lesslog_updated_total":               "updated",
	"lesslog_broadcast_legs_total":        "broadcast",
	"lesslog_detector_flips_total":        "peers_down",
	"lesslog_proto_errors_total":          "proto_errors",
	"lesslog_located_total":               "located",
	"lesslog_direct_gets_total":           "direct_served",
	"lesslog_relayed_payload_bytes_total": "relayed_bytes",
	"lesslog_chunks_served_total":         "chunks_served",
	"lesslog_chunk_payload_bytes_total":   "chunk_bytes",
	"lesslog_chunk_refusals_total":        "chunk_refusals",
	"lesslog_locate_sets_total":           "locate_sets",
	"lesslog_write_chunks_total":          "write_chunks",
	"lesslog_write_payload_bytes_total":   "write_bytes",
	"lesslog_staged_aborts_total":         "staged_aborts",
	"lesslog_notify_propagation_total":    "notify_pulls",
	"lesslog_write_entries_total":         "writes_at_holder",
	"lesslog_fanout_payload_bytes_total":  "fanout_bytes",
	"lesslog_repair_total":                "repaired",
	"lesslog_repair_probes_total":         "repair_probes",
	"lesslog_digest_bytes_total":          "digest_bytes",
	"lesslog_wal_persist_errors_total":    "persist_errors",
	"lesslog_traces_total":                "trace_recorded",
	"lesslog_transport_events_total":      "transport",
	"lesslog_live_peers":                  "live_peers",
	"lesslog_detector_down_peers":         "detector_down",
	"lesslog_store_files":                 "inserted",
	"lesslog_pipeline_depth":              "pipeline_depth",
	"lesslog_fanout_active_legs":          "fanout_active",
	"lesslog_repair_deficit_bytes":        "repair_deficit",
	"lesslog_tombstones":                  "tombstones",
	"lesslog_repair_ttfr_seconds":         "repair_ttfr_ms",
	"lesslog_rpc_latency_seconds":         "rpc_latency_ms",
	"lesslog_handler_latency_seconds":     "handler_latency_ms",
	"lesslog_get_serve_latency_seconds":   "serve_latency_ms",
	"lesslog_get_forward_latency_seconds": "forward_latency_ms",
	"lesslog_broadcast_fanout_legs":       "broadcast_fanout",
}

// TestPeerMetricsExhaustive checks that every counter and gauge family
// the peer exports to Prometheus also appears in the JSON stat snapshot,
// and that the mapping table itself has no stale entries.
func TestPeerMetricsExhaustive(t *testing.T) {
	peers := startSystem(t, 3, 0, allPIDs(4), hashring.Fixed(2))
	p := peers[0]
	var buf bytes.Buffer
	p.WritePrometheus(&buf)
	fams := promFamilies(t, buf.String())
	keys := jsonKeys(t, p.StatSnapshot())

	seen := map[string]bool{}
	for _, fam := range fams {
		key, ok := peerFamilyJSON[fam]
		if !ok {
			t.Errorf("Prometheus family %s has no JSON stat-snapshot mapping — add it to both surfaces", fam)
			continue
		}
		if !keys[key] {
			t.Errorf("family %s maps to JSON key %q, absent from the snapshot", fam, key)
		}
		seen[fam] = true
	}
	for fam := range peerFamilyJSON {
		if !seen[fam] {
			t.Errorf("mapping table lists %s but WritePrometheus no longer emits it", fam)
		}
	}
}
