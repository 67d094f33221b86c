package fleet

// The registry test: the snapshot structs are the only list of metrics
// there is (internal/metrics "One declaration per metric"), so what used
// to be caught by comparing hand-kept lists is checked on the declarations
// themselves — every number is declared or deliberately kept off /metrics,
// no two fields claim one series, and the fleet merge they drive is the
// one their tags say.

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"lesslog/internal/gateway"
	"lesslog/internal/metrics"
	"lesslog/internal/netnode"
)

var snapshotTypes = []any{netnode.StatSnapshot{}, gateway.StatSnapshot{}}

func isNumber(k reflect.Kind) bool {
	return k >= reflect.Int && k <= reflect.Float64 && k != reflect.Uintptr
}

// undeclared walks t as the declaration walk does and reports numeric
// fields with no prom tag, and fields with no json key.
func undeclared(t *testing.T, typ reflect.Type, path string) {
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		prom, name := f.Tag.Get("prom"), path+f.Name
		if !f.Anonymous && f.Tag.Get("json") == "" {
			t.Errorf("%s has no json key", name)
		}
		switch {
		case prom == "-":
		case f.Type.Kind() == reflect.Struct && prom == "":
			undeclared(t, f.Type, name+".")
		case isNumber(f.Type.Kind()) && prom == "":
			t.Errorf(`%s is a number with no prom tag: declare its family, or prom:"-"`, name)
		}
	}
}

func TestRegistryDeclaresEveryNumber(t *testing.T) {
	for _, s := range snapshotTypes {
		undeclared(t, reflect.TypeOf(s), reflect.TypeOf(s).String()+".")
	}
}

func TestRegistrySeriesAreUniqueAndGrouped(t *testing.T) {
	view := metrics.Fields(Cluster{})
	for _, s := range snapshotTypes {
		series, families, planes := map[string]string{}, map[string]bool{}, map[string]bool{}
		family, plane := "", ""
		for _, d := range metrics.Declarations(s) {
			id := d.Family + "{" + d.Label + "}"
			if other, taken := series[id]; taken {
				t.Errorf("%s and %s both claim %s", other, d.Key, id)
			}
			series[id] = d.Key
			if d.Family != family && families[d.Family] {
				t.Errorf("%s: family %s is split — keep its fields adjacent", d.Key, d.Family)
			}
			family, families[d.Family] = d.Family, true
			if counter := strings.HasSuffix(d.Family, "_total"); counter != (d.Type == "counter") {
				t.Errorf("%s: %s is declared a %s", d.Key, d.Family, d.Type)
			}
			if d.Merge == "" {
				continue
			}
			if d.Plane != plane && planes[d.Plane] {
				t.Errorf("%s: plane %s is split — keep its fields adjacent", d.Key, d.Plane)
			}
			plane, planes[d.Plane] = d.Plane, true
			to, ok := view[d.As]
			if !ok {
				t.Errorf("%s merges as %q, which fleet.Cluster has no field for", d.Key, d.As)
				continue
			}
			_, spread := to.Interface().(metrics.Spread)
			if known := d.Merge == "sum" || d.Merge == "max" || d.Merge == "spread"; !known || spread != (d.Merge == "spread") {
				t.Errorf("%s: rule %q cannot fill Cluster field %s (%s)", d.Key, d.Merge, d.As, to.Type())
			}
		}
	}
}

// randomize fills every numeric field of the struct v, embedded blocks
// included, with a value small enough to sum exactly in a float64.
func randomize(rng *rand.Rand, v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch {
		case v.Type().Field(i).Anonymous:
			randomize(rng, f)
		case f.CanUint():
			f.SetUint(uint64(rng.Int63n(1 << 40)))
		case f.CanInt():
			f.SetInt(rng.Int63n(1 << 20))
		case f.CanFloat():
			f.SetFloat(float64(rng.Intn(1<<20)) / 8)
		}
	}
}

// TestAggregateFollowsDeclaredRules merges random snapshots and checks
// every merged field of the cluster JSON against the rule in the peer
// field's fleet tag, read here from the tag itself and folded by hand.
func TestAggregateFollowsDeclaredRules(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	stats := make([]PeerStat, 7)
	for i := range stats {
		randomize(rng, reflect.ValueOf(&stats[i].Stat).Elem())
	}
	raw, err := json.Marshal(Aggregate(stats, 0))
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}

	checked := 0
	var check func(typ reflect.Type, path []int)
	check = func(typ reflect.Type, path []int) {
		for i := 0; i < typ.NumField(); i++ {
			f, index := typ.Field(i), append(path[:len(path):len(path)], i)
			if f.Anonymous {
				check(f.Type, index)
				continue
			}
			rule := strings.Split(f.Tag.Get("fleet"), ",")
			if rule[0] == "" {
				continue
			}
			key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if len(rule) == 3 {
				key = strings.TrimPrefix(rule[2], "as=")
			}
			var sum, lo, hi float64
			for n, ps := range stats {
				v := reflect.ValueOf(ps.Stat).FieldByIndex(index).Convert(reflect.TypeOf(sum)).Float()
				if n == 0 {
					lo, hi = v, v
				}
				sum, lo, hi = sum+v, min(lo, v), max(hi, v)
			}
			var want any
			switch rule[0] {
			case "sum":
				want = sum
			case "max":
				want = hi
			case "spread":
				want = map[string]any{"min": lo, "max": hi, "total": sum, "mean": sum / float64(len(stats))}
			}
			if !reflect.DeepEqual(got[key], want) {
				t.Errorf("%s (%s of %s) = %v, want %v", key, rule[0], f.Name, got[key], want)
			}
			checked++
		}
	}
	check(reflect.TypeOf(netnode.StatSnapshot{}), nil)
	if checked < 40 {
		t.Fatalf("only %d merged fields found: the tag walk is broken", checked)
	}
}
