package metrics

// One declaration per metric. A snapshot struct — the plain-value JSON
// form of a component's counters — is also their registry: beside its json
// key each field says, in struct tags, which Prometheus family and fixed
// label it is exported under, whether it is a counter or a gauge, and how
// a fleet view merges it:
//
//	PeersDown uint64 `json:"peers_down" prom:"lesslog_detector_flips_total,direction=down" fleet:"sum,fabric"`
//
//	prom:"family[,label=value][,gauge][,scale=f]"   "-" keeps a field (or a nested block) off /metrics
//	fleet:"rule,plane[,as=key]"                     rule is sum, max or spread
//
// A numeric field exports its value (times scale: 1e-3 takes a field kept
// in milliseconds to a family in seconds), a slice its length, a DistStat
// the histogram it summarizes (scale applies to the observed samples:
// 1e-9 takes nanoseconds to seconds), a map[string]DistStat one histogram
// series per key, the key standing for the * in its label (kind=*). An embedded struct is flattened and an
// untagged nested struct is walked under "outer.inner" keys, as
// encoding/json does. plane names the lesslog-top line a merged value is
// rendered on; `as` renames it in the fleet view (a max of repair_ttfr_ms
// is published as repair_ttfr_ms_max). The fields of one family stand
// next to each other, and so do the merged fields of one plane: the
// writers start a family, or a line, where the name changes.
//
// Load, WritePrometheus (prometheus.go) and Merge derive the snapshot
// copy, the /metrics page and the fleet merge from those tags by
// reflection. All three run at snapshot or scrape time only; nothing here
// is on a request path.

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
)

// Decl is one declared metric: a tagged field of a snapshot struct.
type Decl struct {
	Key    string  // JSON key, "outer.inner" through a nested block
	Family string  // Prometheus family
	Label  string  // label body (`direction="down"`; `kind="*"` on a map field), "" for none
	Type   string  // "counter", "gauge" or "histogram"
	Scale  float64 // factor from the field's (a DistStat's samples') unit to the family's
	Merge  string  // fleet rule: "sum", "max", "spread"; "" is not merged
	Plane  string  // lesslog-top line of the merged value
	As     string  // JSON key of the merged value in the fleet view
	index  []int
}

// Declarations lists the metrics snapshot's type declares, in field order.
// snapshot is a snapshot struct or a pointer to one.
func Declarations(snapshot any) []Decl {
	return declare(reflect.Indirect(reflect.ValueOf(snapshot)).Type(), "", nil)
}

func declare(t reflect.Type, prefix string, path []int) []Decl {
	var out []Decl
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		index := append(path[:len(path):len(path)], i)
		prom := strings.Split(f.Tag.Get("prom"), ",")
		switch {
		case prom[0] == "-":
		case f.Anonymous:
			out = append(out, declare(f.Type, prefix, index)...)
		case prom[0] == "" && f.Type.Kind() == reflect.Struct:
			out = append(out, declare(f.Type, prefix+jsonKey(f)+".", index)...)
		case prom[0] != "":
			d := Decl{Key: prefix + jsonKey(f), Family: prom[0], Type: "counter", Scale: 1, index: index}
			switch reflect.Zero(f.Type).Interface().(type) {
			case DistStat, map[string]DistStat:
				d.Type = "histogram"
			}
			for _, opt := range prom[1:] {
				name, value, _ := strings.Cut(opt, "=")
				switch name {
				case "gauge":
					d.Type = "gauge"
				case "scale":
					d.Scale, _ = strconv.ParseFloat(value, 64)
				default:
					d.Label = name + `="` + value + `"`
				}
			}
			if fleet := strings.Split(f.Tag.Get("fleet"), ","); len(fleet) >= 2 {
				d.Merge, d.Plane, d.As = fleet[0], fleet[1], d.Key
				if len(fleet) == 3 {
					d.As = strings.TrimPrefix(fleet[2], "as=")
				}
			}
			out = append(out, d)
		}
	}
	return out
}

func jsonKey(f reflect.StructField) string {
	if key, _, _ := strings.Cut(f.Tag.Get("json"), ","); key != "" {
		return key
	}
	return f.Name
}

// Load copies into each numeric field of the snapshot struct *dst the
// current value of the live counter of the same name — an atomic.Uint64,
// atomic.Int64 or AtomicCounter field of one of the structs live points
// to. Fields with no live namesake are left for the caller to compute.
func Load(dst any, live ...any) { load(reflect.ValueOf(dst).Elem(), live) }

func load(dst reflect.Value, live []any) {
	for i := 0; i < dst.NumField(); i++ {
		f, sf := dst.Field(i), dst.Type().Field(i)
		if sf.Anonymous {
			load(f, live)
			continue
		}
		for _, l := range live {
			if src := reflect.ValueOf(l).Elem().FieldByName(sf.Name); src.IsValid() {
				switch a := src.Addr().Interface().(type) {
				case interface{ Load() uint64 }:
					f.SetUint(a.Load())
				case interface{ Load() int64 }:
					f.SetInt(a.Load())
				}
			}
		}
	}
}

// Spread is the fleet form of an instantaneous per-member gauge: a skewed
// max against a low mean is the overload signature a sum would hide.
type Spread struct {
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	Total int64   `json:"total"`
}

func (s Spread) String() string { return fmt.Sprintf("%d..%d(mean %.1f)", s.Min, s.Max, s.Mean) }

// Merge folds one member's snapshot into the fleet view *view under each
// declaration's rule: sums add, maxes keep the largest, spreads track
// min/mean/max. n is the number of members merged into view before this
// one. view needs a field with the JSON key each merged declaration is
// published as — embedding the member's summed block provides most.
func Merge(view, member any, n int) {
	src, into := reflect.Indirect(reflect.ValueOf(member)), Fields(view)
	for _, d := range Declarations(member) {
		if d.Merge == "" {
			continue
		}
		to, from := into[d.As], src.FieldByIndex(d.index)
		switch {
		case d.Merge == "spread":
			s, v := to.Addr().Interface().(*Spread), from.Int()
			if n == 0 {
				s.Min, s.Max = v, v
			}
			s.Min, s.Max, s.Total = min(s.Min, v), max(s.Max, v), s.Total+v
			s.Mean = float64(s.Total) / float64(n+1)
		case to.CanUint():
			to.SetUint(merge(d.Merge, to.Uint(), from.Uint()))
		case to.CanFloat():
			to.SetFloat(merge(d.Merge, to.Float(), from.Float()))
		default:
			to.SetInt(merge(d.Merge, to.Int(), from.Int()))
		}
	}
}

func merge[T uint64 | int64 | float64](rule string, a, b T) T {
	if rule == "max" {
		return max(a, b)
	}
	return a + b
}

// Fields indexes the fields of the struct view (or *view: then they are
// settable) by JSON key, through embedded structs — how Merge, and a
// reader of what Merge produced, find the field a declaration is
// published as.
func Fields(view any) map[string]reflect.Value {
	return fields(reflect.Indirect(reflect.ValueOf(view)), map[string]reflect.Value{})
}

func fields(v reflect.Value, into map[string]reflect.Value) map[string]reflect.Value {
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); f.Anonymous {
			fields(v.Field(i), into)
		} else {
			into[jsonKey(f)] = v.Field(i)
		}
	}
	return into
}
