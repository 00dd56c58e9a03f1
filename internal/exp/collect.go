package exp

import (
	"context"
	"fmt"

	"dpbp/internal/results"
)

// Experiment names accepted by Collect, in the CLI's documented order.
// "all" runs the paper's full evaluation, sharing the Figure 7-9 timing
// runs; "shootout" and "ablations" are the extension studies.
var experimentNames = []string{
	"table1", "table2", "fig6", "fig7", "fig8", "fig9",
	"perfect", "guided", "ablations", "shootout", "smt", "all",
}

// ExperimentNames returns the experiment names Collect accepts, in
// documented order. The slice is fresh; callers may mutate it.
func ExperimentNames() []string {
	return append([]string(nil), experimentNames...)
}

// ValidExperiment reports whether Collect accepts the name.
func ValidExperiment(name string) bool {
	for _, n := range experimentNames {
		if n == name {
			return true
		}
	}
	return false
}

// Collect runs the named experiment — or all of them, sharing the
// Figure 7-9 timing runs — and returns the typed results as named
// sections in output order. It is the one dispatch point every sweep
// driver (the dpbp CLI, the dpbpd server) shares, so a submission to the
// server and a CLI invocation of the same experiment produce the same
// sections and therefore render to identical bytes.
func Collect(ctx context.Context, name string, o Options) ([]results.Section, error) {
	one := func(key string, v any, err error) ([]results.Section, error) {
		if err != nil {
			return nil, err
		}
		return []results.Section{{Key: key, Val: v}}, nil
	}
	switch name {
	case "table1":
		v, err := Table1(ctx, o)
		return one("table1", v, err)
	case "table2":
		v, err := Table2(ctx, o)
		return one("table2", v, err)
	case "fig6":
		v, err := Figure6(ctx, o)
		return one("figure6", v, err)
	case "fig7":
		v, err := Figure7(ctx, o)
		return one("figure7", v, err)
	case "fig8":
		v, err := Figure8(ctx, o)
		return one("figure8", v, err)
	case "fig9":
		v, err := Figure9(ctx, o)
		return one("figure9", v, err)
	case "perfect":
		v, err := Perfect(ctx, o)
		return one("perfect", v, err)
	case "guided":
		v, err := ProfileGuided(ctx, o)
		return one("guided", v, err)
	case "ablations":
		v, err := Ablations(ctx, o)
		return one("ablations", v, err)
	case "shootout":
		v, err := Shootout(ctx, o)
		return one("shootout", v, err)
	case "smt":
		v, err := SMT(ctx, o)
		return one("smt", v, err)
	case "all":
		var out []results.Section
		t1, err := Table1(ctx, o)
		if err != nil {
			return nil, err
		}
		out = append(out, results.Section{Key: "table1", Val: t1})
		t2, err := Table2(ctx, o)
		if err != nil {
			return nil, err
		}
		out = append(out, results.Section{Key: "table2", Val: t2})
		pf, err := Perfect(ctx, o)
		if err != nil {
			return nil, err
		}
		out = append(out, results.Section{Key: "perfect", Val: pf})
		f6, err := Figure6(ctx, o)
		if err != nil {
			return nil, err
		}
		out = append(out, results.Section{Key: "figure6", Val: f6})
		runs, runErrs, err := RunFigure7Set(ctx, o)
		if err != nil {
			return nil, err
		}
		out = append(out,
			results.Section{Key: "figure7", Val: &results.Figure7Result{Runs: runs, Errors: runErrs}},
			results.Section{Key: "figure8", Val: Figure8FromRuns(runs)},
			results.Section{Key: "figure9", Val: Figure9FromRuns(runs)})
		return out, nil
	default:
		return nil, fmt.Errorf("unknown experiment %q", name)
	}
}
