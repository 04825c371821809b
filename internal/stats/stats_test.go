package stats

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("n", "phases", "ratio")
	tb.AddRow(64, 12, 1.5)
	tb.AddRow(1024, 20, 2.0)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want 4 (header, rule, 2 rows)", len(lines))
	}
	if !strings.HasPrefix(lines[0], "n") || !strings.Contains(lines[0], "phases") {
		t.Errorf("header wrong: %q", lines[0])
	}
	if !strings.Contains(lines[3], "1024") {
		t.Errorf("row wrong: %q", lines[3])
	}
	if tb.Len() != 2 {
		t.Errorf("Len = %d", tb.Len())
	}
}

func TestFitExactShape(t *testing.T) {
	ns := []float64{64, 256, 1024, 4096}
	ys := make([]float64, len(ns))
	for i, n := range ns {
		ys[i] = 2.5 * math.Log2(n)
	}
	f := Fit(ns, ys, GrowthLog)
	if math.Abs(f.Spread-1) > 1e-9 {
		t.Errorf("exact log series: spread = %v, want 1", f.Spread)
	}
	if math.Abs(f.LoC-2.5) > 1e-9 {
		t.Errorf("constant = %v, want 2.5", f.LoC)
	}
}

func TestBestFitDistinguishesShapes(t *testing.T) {
	ns := []float64{64, 256, 1024, 4096, 16384}
	logSeries := make([]float64, len(ns))
	linSeries := make([]float64, len(ns))
	for i, n := range ns {
		logSeries[i] = 3 * math.Log2(n)
		linSeries[i] = 0.1 * n
	}
	cands := []Growth{GrowthConst, GrowthLog, GrowthLog2, GrowthLinear}
	if got := BestFit(ns, logSeries, cands...); got.Growth.Name != "log n" {
		t.Errorf("log series classified as %q", got.Growth.Name)
	}
	if got := BestFit(ns, linSeries, cands...); got.Growth.Name != "n" {
		t.Errorf("linear series classified as %q", got.Growth.Name)
	}
}

func TestGrowthLog2OverLogLog(t *testing.T) {
	// At n = 65536: log²n = 256, loglog = 4 → 64.
	if got := GrowthLog2OverLogLog.F(65536); math.Abs(got-64) > 1e-9 {
		t.Errorf("got %v, want 64", got)
	}
	// Clamp below.
	if got := GrowthLog2OverLogLog.F(2); got != 1 {
		t.Errorf("clamped value = %v, want 1", got)
	}
}

func TestFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched series did not panic")
		}
	}()
	Fit([]float64{1}, []float64{1, 2}, GrowthLog)
}
