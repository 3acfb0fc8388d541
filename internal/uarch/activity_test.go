package uarch

import (
	"reflect"
	"testing"
)

// numbered returns an Activity whose uint64 leaves, walked by reflection in
// declaration order (array elements in index order), hold scale*1,
// scale*2, ...; it fails the test on a field that is not a uint64 or an
// array of them.
func numbered(t *testing.T, scale uint64) (a Activity, leaves int) {
	t.Helper()
	v := reflect.ValueOf(&a).Elem()
	set := func(f reflect.Value) {
		leaves++
		f.SetUint(scale * uint64(leaves))
	}
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch {
		case f.Kind() == reflect.Uint64:
			set(f)
		case f.Kind() == reflect.Array && f.Type().Elem().Kind() == reflect.Uint64:
			for j := 0; j < f.Len(); j++ {
				set(f.Index(j))
			}
		default:
			t.Fatalf("Activity field %s has type %s, want uint64 or an array of them",
				v.Type().Field(i).Name, f.Type())
		}
	}
	return a, leaves
}

// TestCounterListCoversActivity pins the counter list against the struct:
// every uint64 leaf is in it exactly once, in declaration order, so a field
// added to Activity without a line in counters fails here instead of
// silently dropping out of Sub and the sampler's extrapolation.
func TestCounterListCoversActivity(t *testing.T) {
	a, leaves := numbered(t, 1)
	if leaves != VectorLen {
		t.Fatalf("Activity has %d uint64 leaves, VectorLen = %d", leaves, VectorLen)
	}
	for i, p := range a.counters() {
		if p == nil {
			t.Fatalf("the counter list has %d entries, want %d", i, VectorLen)
		}
		if *p != uint64(i+1) {
			t.Fatalf("list entry %d points at counter %d of the struct: the list is out of declaration order", i+1, *p)
		}
	}
	v := a.Vector()
	for i, x := range v {
		if x != uint64(i+1) {
			t.Fatalf("Vector()[%d] = %d, want %d", i, x, i+1)
		}
	}
	var back Activity
	back.SetVector(v)
	if back != a {
		t.Fatal("SetVector(Vector(a)) != a")
	}
	if d := a.Sub(&a); d != (Activity{}) {
		t.Fatalf("a.Sub(&a) = %+v, want the zero Activity", d)
	}
	if d := a.Sub(&Activity{}); d != a {
		t.Fatal("a.Sub(&zero) != a")
	}
	three, _ := numbered(t, 3)
	two, _ := numbered(t, 2)
	if d := three.Sub(&a); d != two {
		t.Fatalf("Sub paired counters wrongly: got %+v, want %+v", d, two)
	}
}
