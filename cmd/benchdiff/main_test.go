package main

import (
	"strings"
	"testing"
)

func TestExitCodeOnCleanComparison(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"testdata/old.json", "testdata/new_ok.json"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "geomean:") {
		t.Errorf("missing geomean line:\n%s", out.String())
	}
	if strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("clean comparison reported a regression:\n%s", out.String())
	}
}

func TestExitCodeOnRegression(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"testdata/old.json", "testdata/new_regressed.json"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stdout:\n%s", code, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "REGRESSION") || !strings.Contains(text, "BenchmarkForwardSelection") {
		t.Errorf("regression report missing offender:\n%s", text)
	}
	// The +25% injected regression should carry its p-value and sample
	// counts (3 samples per side in the fixtures).
	if !strings.Contains(text, "n=3/3") {
		t.Errorf("regression line missing sample counts:\n%s", text)
	}
}

func TestExitCodeOnMemRegression(t *testing.T) {
	var out, errb strings.Builder
	// The fixture holds ns/op at the baseline and regresses only memory:
	// BenchmarkKFKJoin's B/op by +25%, BenchmarkNBFit's allocs/op by +67%.
	code := run([]string{"testdata/old.json", "testdata/new_memregressed.json"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stdout:\n%s", code, out.String())
	}
	text := out.String()
	if strings.Contains(text, "REGRESSION: ") && !strings.Contains(text, "MEM REGRESSION") {
		t.Errorf("time gate fired on a mem-only fixture:\n%s", text)
	}
	if !strings.Contains(text, "MEM REGRESSION") {
		t.Errorf("mem regression report missing:\n%s", text)
	}
	if !strings.Contains(text, "BenchmarkKFKJoin B/op") {
		t.Errorf("B/op offender missing:\n%s", text)
	}
	if !strings.Contains(text, "BenchmarkNBFit allocs/op") {
		t.Errorf("allocs/op offender missing:\n%s", text)
	}
}

func TestMemThresholdFlagLoosensGate(t *testing.T) {
	var out, errb strings.Builder
	// 25% B/op and 67% allocs/op regressions pass under a 70% threshold.
	code := run([]string{"-memthreshold", "0.7", "testdata/old.json", "testdata/new_memregressed.json"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, want 0 with 70%% memthreshold; stdout:\n%s", code, out.String())
	}
	// The time threshold does not loosen the mem gate.
	code = run([]string{"-threshold", "0.9", "testdata/old.json", "testdata/new_memregressed.json"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 with loose time threshold only; stdout:\n%s", code, out.String())
	}
}

func TestThresholdFlagLoosensGate(t *testing.T) {
	var out, errb strings.Builder
	// new_regressed.json regresses both time and memory on
	// BenchmarkForwardSelection, so both gates must be loosened to pass.
	code := run([]string{"-threshold", "0.5", "-memthreshold", "0.5", "testdata/old.json", "testdata/new_regressed.json"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, want 0 with 50%% thresholds; stdout:\n%s", code, out.String())
	}
	// Loosening only the time gate leaves the mem gate armed.
	out.Reset()
	code = run([]string{"-threshold", "0.5", "testdata/old.json", "testdata/new_regressed.json"}, &out, &errb)
	if code != 1 || !strings.Contains(out.String(), "MEM REGRESSION") {
		t.Fatalf("exit = %d, want 1 from the mem gate alone; stdout:\n%s", code, out.String())
	}
}

func TestQuietSuppressesTable(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-q", "testdata/old.json", "testdata/new_ok.json"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	if strings.Contains(out.String(), "BenchmarkKFKJoin") {
		t.Errorf("-q should suppress the per-benchmark table:\n%s", out.String())
	}
}

func TestUsageAndParseErrors(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"one-arg.json"}, &out, &errb); code != 2 {
		t.Errorf("missing arg: exit = %d, want 2", code)
	}
	if code := run([]string{"testdata/old.json", "testdata/does_not_exist.json"}, &out, &errb); code != 2 {
		t.Errorf("missing file: exit = %d, want 2", code)
	}
	if code := run([]string{"-threshold", "oops", "a", "b"}, &out, &errb); code != 2 {
		t.Errorf("bad flag: exit = %d, want 2", code)
	}
}

// TestOutOfRangeGateFlagsAreUsageErrors: a gate parameter outside its
// range would silently disarm or invert the gate (-alpha 0 passes the
// seeded regression, a negative -threshold flags a faster benchmark), so it
// is refused with exit 2 and a message naming the flag.
func TestOutOfRangeGateFlagsAreUsageErrors(t *testing.T) {
	cases := []struct {
		flag, value, new string
	}{
		{"-alpha", "0", "testdata/new_regressed.json"},
		{"-alpha", "1", "testdata/new_regressed.json"},
		{"-alpha", "NaN", "testdata/new_regressed.json"},
		{"-threshold", "-1", "testdata/new_ok.json"},
		{"-memthreshold", "-0.5", "testdata/new_ok.json"},
	}
	for _, c := range cases {
		t.Run(c.flag+"="+c.value, func(t *testing.T) {
			var out, errb strings.Builder
			code := run([]string{c.flag, c.value, "testdata/old.json", c.new}, &out, &errb)
			if code != exitUsage {
				t.Fatalf("exit = %d, want %d; stdout:\n%s", code, exitUsage, out.String())
			}
			if !strings.Contains(errb.String(), c.flag+" must be") {
				t.Errorf("stderr does not name %s:\n%s", c.flag, errb.String())
			}
		})
	}
}

func TestMissingBaselineIsVacuousNotPass(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"testdata/no_such_baseline.json", "testdata/new_ok.json"}, &out, &errb)
	if code != exitVacuous {
		t.Fatalf("exit = %d, want %d for a missing baseline; stderr:\n%s", code, exitVacuous, errb.String())
	}
	if !strings.Contains(errb.String(), "does not exist") || !strings.Contains(errb.String(), "bench.sh") {
		t.Errorf("missing-baseline message should say what happened and how to fix it:\n%s", errb.String())
	}
	// A missing *new* snapshot is an ordinary usage error, not a vacuous
	// baseline: the caller just ran the suite, so the path is their typo.
	if code := run([]string{"testdata/old.json", "testdata/no_such_new.json"}, &out, &errb); code != exitUsage {
		t.Errorf("missing new snapshot: exit = %d, want %d", code, exitUsage)
	}
}

func TestZeroOverlapIsVacuousNotPass(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"testdata/old.json", "testdata/disjoint.json"}, &out, &errb)
	if code != exitVacuous {
		t.Fatalf("exit = %d, want %d for zero overlapping benchmarks; stderr:\n%s", code, exitVacuous, errb.String())
	}
	if !strings.Contains(errb.String(), "no overlapping benchmarks") || !strings.Contains(errb.String(), "vacuous") {
		t.Errorf("zero-overlap message should name the problem:\n%s", errb.String())
	}
}

func TestSelfComparisonIsAlwaysClean(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"testdata/old.json", "testdata/old.json"}, &out, &errb); code != 0 {
		t.Fatalf("self-diff exit = %d, want 0; stdout:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "geomean: +0.00%") {
		t.Errorf("self-diff geomean should be exactly zero:\n%s", out.String())
	}
}

func TestSingleSampleBaselineIsVacuousNotPass(t *testing.T) {
	var out, errb strings.Builder
	// The count-1 baseline puts BenchmarkForwardSelection 12% below the
	// count-3 snapshot: with no baseline variance the delta is untestable,
	// so the gate must refuse to judge rather than call it a regression.
	code := run([]string{"testdata/old_count1.json", "testdata/new_ok.json"}, &out, &errb)
	if code != exitVacuous {
		t.Fatalf("exit = %d, want %d for a single-sample baseline; stdout:\n%s\nstderr:\n%s", code, exitVacuous, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "fewer than 2 samples") || !strings.Contains(errb.String(), "-count") {
		t.Errorf("single-sample message should name the problem and the fix:\n%s", errb.String())
	}
	// A multi-sample baseline against a single-sample snapshot still gates:
	// the baseline side carries the variance.
	out.Reset()
	if code := run([]string{"testdata/old.json", "testdata/old_count1.json"}, &out, &errb); code == exitVacuous {
		t.Fatalf("count-3 baseline vs count-1 snapshot: exit = %d, want a real comparison; stdout:\n%s", code, out.String())
	}
}
