package provenance

import (
	"fmt"
	"reflect"
	"testing"
)

// fillValue sets every leaf of v to a distinct non-zero value.
func fillValue(v reflect.Value, next *int) {
	*next++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillValue(v.Field(i), next)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillValue(v.Index(i), next)
		}
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *next))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*next))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*next))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*next))
	default:
		panic("fillValue: unhandled kind " + v.Kind().String())
	}
}

// TestCommitCopiesEveryField: a committed record reads back with every
// field and the first N* entries of each inline array intact, so the
// prefix-only ring copy cannot silently drop a field added to Record.
func TestCommitCopiesEveryField(t *testing.T) {
	var src Record
	n := 0
	fillValue(reflect.ValueOf(&src).Elem(), &n)
	src.NFeatures, src.NBranches, src.NActions = 3, 2, 1

	r := New(1, DefaultHealthyEvery)
	r.push(&src)
	got := r.Records()[0]

	want := src
	want.Features = [MaxFeatures]FeatureRead{}
	copy(want.Features[:], src.Features[:src.NFeatures])
	want.Branches = [MaxBranches]BranchDecision{}
	copy(want.Branches[:], src.Branches[:src.NBranches])
	want.Actions = [MaxActions]ActionOutcome{}
	copy(want.Actions[:], src.Actions[:src.NActions])
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("committed record differs from its source:\n got %+v\nwant %+v", got, want)
	}
}
