package core

import (
	"math"
	"reflect"
	"testing"

	"catcam/internal/flightrec"
)

// This file proves that the composite folds (Structure.Merge with
// Finish, Stats.Add, flightrec.SweepInfo.Add) give every numeric field
// a rule: each test fills two parts' fields with distinct values by
// reflection and checks each merged field, so a field added later that
// a merge misses fails here.

// fillDistinct gives every numeric field of v, nested structs
// included, a distinct positive value counting up from *next.
func fillDistinct(v reflect.Value, next *int) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch {
		case f.Kind() == reflect.Struct:
			fillDistinct(f, next)
			continue
		case f.CanInt():
			f.SetInt(int64(*next))
		case f.CanUint():
			f.SetUint(uint64(*next))
		case f.CanFloat():
			f.SetFloat(float64(*next))
		default:
			continue
		}
		*next++
	}
}

// numericFields flattens v's numeric fields, nested structs included,
// into out keyed by dotted path.
func numericFields(v reflect.Value, prefix string, out map[string]float64) map[string]float64 {
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), prefix+v.Type().Field(i).Name
		switch {
		case f.Kind() == reflect.Struct:
			numericFields(f, name+".", out)
		case f.CanInt():
			out[name] = float64(f.Int())
		case f.CanUint():
			out[name] = float64(f.Uint())
		case f.CanFloat():
			out[name] = f.Float()
		}
	}
	return out
}

// checkFolded fails unless every numeric field of *got is the sum of
// the fields of *a and *b, or want[path] where want names the field.
func checkFolded(t *testing.T, got, a, b any, want map[string]float64) {
	t.Helper()
	g := numericFields(reflect.ValueOf(got).Elem(), "", map[string]float64{})
	fa := numericFields(reflect.ValueOf(a).Elem(), "", map[string]float64{})
	fb := numericFields(reflect.ValueOf(b).Elem(), "", map[string]float64{})
	if len(g) == 0 {
		t.Fatal("no numeric fields found")
	}
	for path, v := range g {
		exp, ok := want[path]
		if !ok {
			exp = fa[path] + fb[path]
		}
		if math.Abs(v-exp) > 1e-9*math.Abs(exp) {
			t.Errorf("%s = %v, want %v (parts %v and %v)", path, v, exp, fa[path], fb[path])
		}
	}
}

// distinctPair returns two values of T whose numeric fields all differ.
func distinctPair[T any]() (*T, *T) {
	var a, b T
	next := 1
	fillDistinct(reflect.ValueOf(&a).Elem(), &next)
	fillDistinct(reflect.ValueOf(&b).Elem(), &next)
	return &a, &b
}

func TestStructureMergeCoversEveryField(t *testing.T) {
	a, b := distinctPair[Structure]()
	a.Subtables = []SubtableStructure{
		{Index: 0, ID: 0, Shard: -1, Table: -1, Entries: 3},
		{Index: 2, ID: 2, Shard: -1, Table: -1, Entries: 5},
	}
	b.ShardEpochs = []uint64{7, 9}
	b.Subtables = []SubtableStructure{{Index: 1, ID: 1, Shard: 4, Table: -1, Entries: 6}}

	var got Structure
	got.Reset()
	got.Merge(a, 0, -1)
	got.Merge(b, -1, 3)
	got.Finish()

	checkFolded(t, &got, a, b, map[string]float64{
		"Epoch":            float64(max(a.Epoch, b.Epoch)),
		"MaxFullRun":       float64(max(a.MaxFullRun, b.MaxFullRun)),
		"SubtableCapacity": float64(max(a.SubtableCapacity, b.SubtableCapacity)),
		"Occupancy":        float64(a.Entries+b.Entries) / float64(a.Capacity+b.Capacity),
		"FragIndex": (a.FragIndex*float64(a.Capacity) + b.FragIndex*float64(b.Capacity)) /
			float64(a.Capacity+b.Capacity),
		"CareDensity": float64(a.CareBits+b.CareBits) / float64(a.TernaryBits+b.TernaryBits),
	})
	if want := []uint64{a.Epoch, 7, 9}; !reflect.DeepEqual(got.ShardEpochs, want) {
		t.Errorf("ShardEpochs %v, want %v", got.ShardEpochs, want)
	}
	shift := a.TotalSubtables
	want := []SubtableStructure{
		{Index: 0, ID: 0, Shard: 0, Table: -1, Entries: 3},
		{Index: 2, ID: 2, Shard: 0, Table: -1, Entries: 5},
		{Index: 1 + shift, ID: 1, Shard: 4, Table: 3, Entries: 6},
	}
	if !reflect.DeepEqual(got.Subtables, want) {
		t.Errorf("Subtables %+v, want %+v", got.Subtables, want)
	}
}

func TestStatsAddCoversEveryField(t *testing.T) {
	a, b := distinctPair[Stats]()
	var got Stats
	got.Add(*a)
	got.Add(*b)
	checkFolded(t, &got, a, b, nil)
}

func TestSweepInfoAddCoversEveryField(t *testing.T) {
	a, b := distinctPair[flightrec.SweepInfo]()
	var got flightrec.SweepInfo
	got.Add(*a)
	got.Add(*b)
	checkFolded(t, &got, a, b, map[string]float64{
		"UnixNano": float64(max(a.UnixNano, b.UnixNano)),
	})
}
