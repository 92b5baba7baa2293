// Package simtest holds shared test helpers for the harness packages.
// Its centerpiece is the golden-report assertion: many suites pin that
// two executions produce bit-identical SkewReports (same-config
// determinism, parallel worker-invariance, arena reuse), and a bare
// reflect.DeepEqual failure on a 20-field struct is unreadable.
// AssertSameReport diffs field by field and fails with exactly the
// fields that diverged.
//
// The helpers take `any` and work by reflection so this package imports
// none of the harness packages — it is usable from sim's own in-package
// tests (which could not import a package that imports sim) and from
// every other harness (rt, bench) alike.
package simtest

import (
	"fmt"
	"math"
	"reflect"
)

// TB is the subset of testing.TB the assertions need; *testing.T and
// *testing.B satisfy it. Declared locally so this package does not
// import testing into non-test builds of its dependents.
type TB interface {
	Helper()
	Fatalf(format string, args ...any)
}

// Diff compares two values of the same struct type field by field and
// returns one human-readable line per differing leaf ("Transport.Sent:
// 100 != 101"). Nil for equal values. Floats compare bit-meaningfully:
// NaN equals NaN (a poisoned sample must not read as a spurious diff),
// +0 equals -0.
func Diff(got, want any) []string {
	a, b := reflect.ValueOf(got), reflect.ValueOf(want)
	if a.Type() != b.Type() {
		return []string{fmt.Sprintf("type mismatch: %T != %T", got, want)}
	}
	var out []string
	diffValue("", a, b, &out)
	return out
}

func diffValue(path string, a, b reflect.Value, out *[]string) {
	switch a.Kind() {
	case reflect.Struct:
		t := a.Type()
		for i := 0; i < t.NumField(); i++ {
			diffValue(join(path, t.Field(i).Name), a.Field(i), b.Field(i), out)
		}
	case reflect.Slice, reflect.Array:
		if a.Kind() == reflect.Slice && (a.IsNil() != b.IsNil()) {
			*out = append(*out, fmt.Sprintf("%s: nil-ness differs (%v != %v)", path, a, b))
			return
		}
		if a.Len() != b.Len() {
			*out = append(*out, fmt.Sprintf("%s: length %d != %d", path, a.Len(), b.Len()))
			return
		}
		for i := 0; i < a.Len(); i++ {
			diffValue(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i), out)
		}
	case reflect.Float64, reflect.Float32:
		x, y := a.Float(), b.Float()
		if x != y && !(math.IsNaN(x) && math.IsNaN(y)) {
			*out = append(*out, fmt.Sprintf("%s: %v != %v", path, x, y))
		}
	case reflect.Ptr, reflect.Interface, reflect.Map:
		if !reflect.DeepEqual(a.Interface(), b.Interface()) {
			*out = append(*out, fmt.Sprintf("%s: %v != %v", path, a, b))
		}
	default:
		if !a.Equal(b) {
			*out = append(*out, fmt.Sprintf("%s: %v != %v", path, a, b))
		}
	}
}

func join(path, field string) string {
	if path == "" {
		return field
	}
	return path + "." + field
}

// Equal reports whether Diff finds no differences.
func Equal(got, want any) bool { return len(Diff(got, want)) == 0 }

// AssertSameReport fails the test unless got and want are bit-identical,
// listing exactly the fields that diverged. label names the equivalence
// being pinned ("workers=4 vs workers=1", "rerun", "arena vs fresh").
func AssertSameReport(tb TB, label string, got, want any) {
	tb.Helper()
	if diffs := Diff(got, want); len(diffs) != 0 {
		msg := fmt.Sprintf("%s: reports differ in %d field(s):", label, len(diffs))
		for _, d := range diffs {
			msg += "\n  " + d
		}
		tb.Fatalf("%s", msg)
	}
}

// AssertReportsDiffer fails the test if got and want are bit-identical —
// the negative control (e.g. a seed change must perturb the execution).
func AssertReportsDiffer(tb TB, label string, got, want any) {
	tb.Helper()
	if Equal(got, want) {
		tb.Fatalf("%s: reports identical, expected a difference", label)
	}
}
