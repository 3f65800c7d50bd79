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
// non-zero value drawn from the counter n. Float fields cycle through
// NaN, +Inf, -Inf and a finite value: the cluster wire must carry every
// bit pattern a row can hold.
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
		v.SetFloat([]float64{math.NaN(), math.Inf(1), math.Inf(-1), float64(*n) / 8}[*n%4])
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

// rowSample is one row slice and the kind it is registered under.
type rowSample struct {
	kind string
	rows any
}

// rowSamples returns sample rows for every registered row kind, failing
// if a kind has none.
func rowSamples(tb testing.TB) []rowSample {
	tb.Helper()
	samples := []rowSample{
		{"char", sampleRows[CharRow]()},
		{"policy", sampleRows[PolicyRow]()},
		{"oracle", sampleRows[OracleRow]()},
		{"predictor", sampleRows[PredictorRow]()},
		{"driven", sampleRows[DrivenRow]()},
		{"reuse", sampleRows[ReuseRow]()},
		{"coherence", sampleRows[CoherenceRow]()},
		{"phase", sampleRows[PhaseRow]()},
		{"horizon", sampleRows[HorizonRow]()},
		// TestRowCodecNonFinite's row.
		{"policy", []PolicyRow{{Workload: "x", Policy: "lru", MissRate: math.NaN(), MissesVsLRU: math.Inf(1), SharedHitFrac: math.Inf(-1)}}},
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
// point. Every seed — the encoding of each kind's sample rows, NaN and
// ±Inf included — must decode to rows that re-encode to the same bytes;
// truncations of those encodings seed the corpus too.
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
		if again, err := EncodeRows(rows); err != nil || !bytes.Equal(again, wire) {
			f.Fatalf("%s: decoded rows re-encode to different bytes (%v)", sm.kind, err)
		}
		for _, n := range []int{len(wire), len(wire) / 2, len(wire) - 1} {
			f.Add(wire[:n])
		}
	}
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
