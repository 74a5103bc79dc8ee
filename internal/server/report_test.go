package server

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode"

	"kumquat"
)

// notOnTheWire lists the run-record fields executeReport deliberately
// leaves out of the trailer. Everything else must arrive.
var notOnTheWire = map[string]string{
	"RunReport.Output":       "the captured stream is the response body, not a report field",
	"StageReport.Combiner":   "planning verdict; /v1/parallelize serves it",
	"StageReport.Sequential": "planning verdict; /v1/parallelize serves it",
	"StageReport.Pipeline":   "stages arrive in script order; only regions carry the index",
}

// wireKey is the JSON key a run-record field travels under: its name in
// snake_case, durations suffixed with the unit they are converted to.
func wireKey(f reflect.StructField) string {
	var b strings.Builder
	for i, r := range f.Name {
		if unicode.IsUpper(r) && i > 0 {
			b.WriteByte('_')
		}
		b.WriteRune(unicode.ToLower(r))
	}
	if f.Type == reflect.TypeOf(time.Duration(0)) {
		b.WriteString("_ms")
	}
	return b.String()
}

// fill sets every exported leaf under v to a non-zero value.
func fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i))
			}
		}
	case reflect.Slice:
		if v.Len() == 0 {
			v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		}
		fill(v.Index(0))
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		key, val := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		fill(key)
		fill(val)
		v.SetMapIndex(key, val)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(3 * time.Millisecond)) // survives the Duration → ms conversion
	case reflect.String:
		v.SetString("x")
	default:
		panic("fill: teach me " + v.Kind().String())
	}
}

// TestExecuteReportCarriesEveryRunField is the drift guard for the one
// field-by-field conversion left in the repo. It walks every exported
// field — promoted ones included — of kumquat.RunReport, StageReport and
// RegionReport, sets it non-zero, converts, and requires the value to
// arrive under its JSON key in api.ExecuteReport / ExecuteStage /
// ExecuteRegion. A metric added to the walker's StageMetrics or
// RegionMetrics therefore cannot silently miss the trailer: it fails here
// until executeReport copies it or notOnTheWire names why not.
func TestExecuteReportCarriesEveryRunField(t *testing.T) {
	var run kumquat.RunReport
	fill(reflect.ValueOf(&run).Elem())
	data, err := json.Marshal(executeReport(&run))
	if err != nil {
		t.Fatal(err)
	}
	var wire map[string]any
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err)
	}
	first := func(key string) map[string]any {
		list, _ := wire[key].([]any)
		if len(list) != 1 {
			t.Fatalf("wire report carries %d %s, want 1: %s", len(list), key, data)
		}
		return list[0].(map[string]any)
	}
	skipped := map[string]bool{}
	for _, rec := range []struct {
		typ  reflect.Type
		wire map[string]any
	}{
		{reflect.TypeOf(run), wire},
		{reflect.TypeOf(kumquat.StageReport{}), first("stages")},
		{reflect.TypeOf(kumquat.RegionReport{}), first("regions")},
	} {
		for _, f := range reflect.VisibleFields(rec.typ) {
			name := rec.typ.Name() + "." + f.Name
			if f.Anonymous || !f.IsExported() {
				continue
			}
			if notOnTheWire[name] != "" {
				skipped[name] = true
				continue
			}
			got, ok := rec.wire[wireKey(f)]
			if !ok || reflect.ValueOf(got).IsZero() {
				t.Errorf("%s does not reach the trailer: key %q = %v", name, wireKey(f), got)
			}
		}
	}
	for name := range notOnTheWire {
		if !skipped[name] {
			t.Errorf("notOnTheWire names %s, which no longer exists", name)
		}
	}
}
