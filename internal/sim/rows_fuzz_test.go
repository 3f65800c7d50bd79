package sim

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
)

// fill sets every settable field of v, depth first, to a distinct
// value drawn from the counter n. Float fields cycle through −0, the
// largest and the smallest positive float64 and a plain fraction: the
// cluster wire must carry every finite bit pattern a row can hold.
func fill(v reflect.Value, n *int) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).CanSet() {
				fill(v.Field(i), n)
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), n)
		}
	case reflect.String:
		*n++
		v.SetString(fmt.Sprintf("w%d", *n))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		*n++
		v.SetInt(int64(*n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		*n++
		v.SetUint(uint64(*n))
	case reflect.Float32, reflect.Float64:
		*n++
		v.SetFloat([]float64{math.Copysign(0, -1), math.MaxFloat64, math.SmallestNonzeroFloat64, float64(*n) / 8}[*n%4])
	}
}

// sampleRows returns two filled rows of type T.
func sampleRows[T any]() []T {
	rows := make([]T, 2)
	n := 0
	for i := range rows {
		fill(reflect.ValueOf(&rows[i]).Elem(), &n)
	}
	return rows
}

// rowSample is one spec's table-major rows and the kind they are
// registered under.
type rowSample struct {
	kind string
	rows any
}

// rowSamples returns one table of sample rows for every registered row
// kind, plus a two-table sample and one with an empty table, failing if a
// kind has none.
func rowSamples(tb testing.TB) []rowSample {
	tb.Helper()
	samples := []rowSample{
		{"char", [][]CharRow{sampleRows[CharRow]()}},
		{"policy", [][]PolicyRow{sampleRows[PolicyRow]()}},
		{"oracle", [][]OracleRow{sampleRows[OracleRow]()}},
		{"predictor", [][]PredictorRow{sampleRows[PredictorRow]()}},
		{"driven", [][]DrivenRow{sampleRows[DrivenRow]()}},
		{"reuse", [][]reuseRow{sampleRows[reuseRow]()}},
		{"coherence", [][]CoherenceRow{sampleRows[CoherenceRow]()}},
		{"phase", [][]phaseRow{sampleRows[phaseRow]()}},
		{"horizon", [][]horizonRow{sampleRows[horizonRow]()}},
		{"seed", [][]seedRow{sampleRows[seedRow]()}},
		{"predictor", [][]PredictorRow{sampleRows[PredictorRow](), sampleRows[PredictorRow]()}},
		{"oracle", [][]OracleRow{sampleRows[OracleRow](), {}}},
	}
	have := map[string]bool{}
	for _, sm := range samples {
		have[sm.kind] = true
	}
	for kind := range rowCodecs {
		if !have[kind] {
			tb.Fatalf("row kind %q has no sample rows", kind)
		}
	}
	return samples
}

// FuzzDecodeRows holds the cluster's row decoder, the one reader of the
// bytes a worker posts as a bundle result, to its contract: no input
// panics under any row kind, and whatever decodes re-encodes to a fixed
// point. Every seed — the table-major encoding of each kind's sample
// rows, −0 and the float64 extremes included, and of a two-table sample
// and an empty table — must decode to the same rows, re-encoding to the
// same bytes; truncations of those encodings seed the corpus too,
// and so does a body with a non-finite token, which no kind decodes.
func FuzzDecodeRows(f *testing.F) {
	kinds := make([]string, 0, len(rowCodecs))
	for kind := range rowCodecs {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	for _, sm := range rowSamples(f) {
		wire, err := EncodeRows(sm.rows)
		if err != nil {
			f.Fatal(err)
		}
		rows, err := DecodeRows(sm.kind, wire)
		if err != nil {
			f.Fatalf("%s: %v", sm.kind, err)
		}
		if !reflect.DeepEqual(rows, sm.rows) {
			f.Fatalf("%s: rows changed on the wire:\n sent %+v\n got %+v", sm.kind, sm.rows, rows)
		}
		if again, err := EncodeRows(rows); err != nil || !bytes.Equal(again, wire) {
			f.Fatalf("%s: decoded rows re-encode to different bytes (%v)", sm.kind, err)
		}
		for _, n := range []int{len(wire), len(wire) / 2, len(wire) - 1} {
			f.Add(wire[:n])
		}
	}
	nonFinite := []byte(`[[{"Workload":"x","Reduction":NaN}]]`)
	for _, kind := range kinds {
		if _, err := DecodeRows(kind, nonFinite); err == nil {
			f.Fatalf("%s: decoded a NaN token", kind)
		}
	}
	f.Add(nonFinite)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range kinds {
			rows, err := DecodeRows(kind, data)
			if err != nil {
				continue
			}
			wire, err := EncodeRows(rows)
			if err != nil {
				t.Fatalf("%s: decoded rows do not re-encode: %v", kind, err)
			}
			back, err := DecodeRows(kind, wire)
			if err != nil {
				t.Fatalf("%s: re-encoded rows do not decode: %v", kind, err)
			}
			if again, err := EncodeRows(back); err != nil || !bytes.Equal(again, wire) {
				t.Fatalf("%s: re-encoding is not a fixed point (%v)", kind, err)
			}
		}
	})
}
