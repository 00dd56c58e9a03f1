package results

import (
	"reflect"
	"testing"
)

// TestClean marks every result type dirty once its Errors list holds a
// run, whether the section carries it by pointer (as the experiments
// do) or by value.
func TestClean(t *testing.T) {
	errs := []RunError{{Bench: "comp", Err: "boom"}}
	dirty := []any{
		&Table1Result{Errors: errs}, &Table2Result{Errors: errs},
		&Figure6Result{Errors: errs}, &Figure7Result{Errors: errs},
		&Figure8Result{Errors: errs}, &Figure9Result{Errors: errs},
		&PerfectResult{Errors: errs}, &ProfileGuidedResult{Errors: errs},
		&ShootoutResult{Errors: errs}, &SMTResult{Errors: errs},
		&AblationResult{Errors: errs}, Table1Result{Errors: errs},
	}
	for _, v := range dirty {
		if Clean([]Section{{Key: "x", Val: v}}) {
			t.Errorf("Clean(%T with run errors) = true", v)
		}
		zero := reflect.New(reflect.Indirect(reflect.ValueOf(v)).Type()).Interface()
		if !Clean([]Section{{Key: "x", Val: zero}}) {
			t.Errorf("Clean(%T without run errors) = false", v)
		}
	}
	if !Clean([]Section{{Key: "n", Val: 3}, {Key: "nil", Val: nil}, {Key: "p", Val: &Figure7Result{}}}) {
		t.Error("Clean reported values without an Errors list as failed")
	}
	if Clean([]Section{{Key: "ok", Val: &Table1Result{}}, {Key: "bad", Val: &PerfectResult{Errors: errs}}}) {
		t.Error("Clean missed a failed run in a later section")
	}
}
