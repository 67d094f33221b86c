package metrics

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

type toyBlock struct {
	Ops uint64 `json:"ops" prom:"toy_ops_total,op=read" fleet:"sum,traffic"`
}

type toySnapshot struct {
	ID uint32 `json:"id" prom:"-"`
	toyBlock
	Depth  int64    `json:"depth" prom:"toy_depth,gauge" fleet:"spread,load"`
	Peak   float64  `json:"peak_ms" prom:"toy_peak_seconds,gauge,scale=1e-3" fleet:"max,load,as=peak_ms_max"`
	Down   []uint32 `json:"down" prom:"toy_down,gauge"`
	Nested struct {
		Dials uint64 `json:"dials" prom:"toy_dials_total"`
	} `json:"nested"`
	Hidden struct {
		N uint64 `json:"n" prom:"toy_hidden_total"`
	} `json:"hidden" prom:"-"`
	Lat map[string]DistStat `json:"lat_ms" prom:"toy_latency_seconds,kind=*,scale=1e-9"`
}

type toyView struct {
	toyBlock
	Depth   Spread  `json:"depth"`
	PeakMax float64 `json:"peak_ms_max"`
}

func TestDeclarations(t *testing.T) {
	var got []string
	for _, d := range Declarations(&toySnapshot{}) {
		got = append(got, strings.Join([]string{d.Key, d.Family, d.Label, d.Type, d.Merge, d.Plane, d.As}, " "))
	}
	want := []string{
		`ops toy_ops_total op="read" counter sum traffic ops`,
		`depth toy_depth  gauge spread load depth`,
		`peak_ms toy_peak_seconds  gauge max load peak_ms_max`,
		`down toy_down  gauge   `,
		`nested.dials toy_dials_total  counter   `,
		`lat_ms toy_latency_seconds kind="*" histogram   `,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("declarations:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestLoadCopiesByName(t *testing.T) {
	var live struct {
		Ops   AtomicCounter
		Depth atomic.Int64
		Other atomic.Uint64 // no snapshot field: ignored
	}
	live.Ops.Add(7)
	live.Depth.Store(-2)
	s := toySnapshot{ID: 9}
	Load(&s, &live)
	if s.Ops != 7 || s.Depth != -2 || s.ID != 9 {
		t.Fatalf("loaded %+v", s)
	}
}

func TestWritePrometheusFromDeclarations(t *testing.T) {
	s := toySnapshot{toyBlock: toyBlock{Ops: 3}, Depth: 2, Peak: 1500, Down: []uint32{4, 5}}
	s.Nested.Dials, s.Hidden.N = 6, 1
	var b strings.Builder
	WritePrometheus(&b, `pid="1"`, s)
	want := `# TYPE toy_ops_total counter
toy_ops_total{pid="1",op="read"} 3
# TYPE toy_depth gauge
toy_depth{pid="1"} 2
# TYPE toy_peak_seconds gauge
toy_peak_seconds{pid="1"} 1.5
# TYPE toy_down gauge
toy_down{pid="1"} 2
# TYPE toy_dials_total counter
toy_dials_total{pid="1"} 6
# TYPE toy_latency_seconds histogram
`
	if b.String() != want {
		t.Fatalf("page:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestMergeRules(t *testing.T) {
	var v toyView
	for n, m := range []toySnapshot{
		{toyBlock: toyBlock{Ops: 5}, Depth: 4, Peak: 2},
		{toyBlock: toyBlock{Ops: 1}, Depth: -1, Peak: 9},
		{toyBlock: toyBlock{Ops: 2}, Depth: 3, Peak: 4},
	} {
		Merge(&v, m, n)
	}
	if v.Ops != 8 || v.PeakMax != 9 || v.Depth != (Spread{Min: -1, Max: 4, Mean: 2, Total: 6}) {
		t.Fatalf("merged view %+v", v)
	}
}
