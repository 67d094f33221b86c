package metrics

// Prometheus text exposition (version 0.0.4) of a snapshot struct's
// declared metrics (declare.go), using only the standard library. The
// admin endpoints of a peer and a gateway serve it as /metrics; any
// Prometheus-compatible scraper can consume the output directly.

import (
	"fmt"
	"io"
	"reflect"
	"strings"
)

// WritePrometheus writes every metric snapshot declares, family by family
// in declaration order: a TYPE header, then one line per series. labels is
// a label body put on every series (`pid="3"`), or "".
func WritePrometheus(w io.Writer, labels string, snapshot any) {
	v := reflect.Indirect(reflect.ValueOf(snapshot))
	family := ""
	for _, d := range Declarations(snapshot) {
		if d.Family != family {
			family = d.Family
			fmt.Fprintf(w, "# TYPE %s %s\n", d.Family, d.Type)
		}
		f, l := v.FieldByIndex(d.index), mergeLabels(labels, d.Label)
		switch x := f.Interface().(type) {
		case DistStat:
			x.writePrometheus(w, d.Family, l, d.Scale)
		case map[string]DistStat:
			for k, dist := range x {
				dist.writePrometheus(w, d.Family, strings.Replace(l, "*", k, 1), d.Scale)
			}
		default:
			if f.Kind() == reflect.Slice {
				f = reflect.ValueOf(f.Len())
			}
			value := f.Convert(reflect.TypeOf(d.Scale)).Float()
			fmt.Fprintf(w, "%s %g\n", seriesName(d.Family, l), value*d.Scale)
		}
	}
}

// seriesName renders name plus an optional label body.
func seriesName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// mergeLabels joins two label bodies with a comma, tolerating empties.
func mergeLabels(a, b string) string { return strings.Trim(a+","+b, ",") }

// writePrometheus writes the distribution d summarizes as one histogram
// series: cumulative buckets with `le` upper bounds, then _sum and _count.
// The observed samples are scaled by scale on the way out (1e-9 turns
// nanoseconds into the seconds Prometheus conventions expect). Empty
// buckets are elided — the cumulative counts and the +Inf bucket keep the
// output well-formed. A summary decoded from JSON has no histogram behind
// it and writes nothing.
func (d DistStat) writePrometheus(w io.Writer, name, labels string, scale float64) {
	if d.src == nil {
		return
	}
	var cum uint64
	for i, c := range d.src.Buckets {
		if c == 0 {
			continue
		}
		cum += c
		le := fmt.Sprintf(`le="%g"`, float64(BucketUpper(i))*scale)
		fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, mergeLabels(labels, le), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, mergeLabels(labels, `le="+Inf"`), d.src.Count)
	fmt.Fprintf(w, "%s %g\n", seriesName(name+"_sum", labels), float64(d.src.Sum)*scale)
	fmt.Fprintf(w, "%s %d\n", seriesName(name+"_count", labels), d.src.Count)
}
