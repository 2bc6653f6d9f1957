package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestFitLinearExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{3, 5, 7, 9, 11} // y = 2x + 1
	f := FitLinear(xs, ys)
	if math.Abs(f.Slope-2) > 1e-12 || math.Abs(f.Intercept-1) > 1e-12 {
		t.Fatalf("fit = %+v, want slope 2 intercept 1", f)
	}
	if f.R2 != 1 {
		t.Fatalf("R2 = %v, want 1", f.R2)
	}
	if f.SlopeStderr != 0 {
		t.Fatalf("stderr = %v, want 0 for exact fit", f.SlopeStderr)
	}
}

func TestFitLinearNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var xs, ys []float64
	for i := 0; i < 200; i++ {
		x := float64(i) / 10
		xs = append(xs, x)
		ys = append(ys, 3*x+2+rng.NormFloat64()*0.5)
	}
	f := FitLinear(xs, ys)
	if math.Abs(f.Slope-3) > 0.1 {
		t.Fatalf("slope = %v, want ≈3", f.Slope)
	}
	if f.R2 < 0.98 {
		t.Fatalf("R2 = %v, want ≥0.98", f.R2)
	}
	lo, hi := f.SlopeCI(1.96)
	if lo > 3 || hi < 3 {
		t.Fatalf("95%% CI [%v, %v] excludes the true slope 3", lo, hi)
	}
}

func TestFitLinearDegenerate(t *testing.T) {
	if f := FitLinear([]float64{1}, []float64{2}); f.N != 1 || f.Slope != 0 {
		t.Fatalf("single point fit = %+v", f)
	}
	f := FitLinear([]float64{2, 2, 2}, []float64{1, 2, 3})
	if f.Slope != 0 || f.Intercept != 2 {
		t.Fatalf("identical-x fit = %+v, want flat line at mean", f)
	}
}

func TestMonotoneNondecreasing(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if !MonotoneNondecreasing(xs, []float64{1, 2, 2, 5}, 0) {
		t.Fatal("nondecreasing series rejected")
	}
	if MonotoneNondecreasing(xs, []float64{1, 5, 2, 6}, 0.5) {
		t.Fatal("large dip accepted")
	}
	if !MonotoneNondecreasing(xs, []float64{1, 2, 1.9, 3}, 0.2) {
		t.Fatal("within-tolerance dip rejected")
	}
	// Ties in x average before comparison: (1,1),(1,3) → mean 2 at x=1.
	if !MonotoneNondecreasing([]float64{1, 1, 2}, []float64{1, 3, 2.5}, 0) {
		t.Fatal("tie-averaged series rejected")
	}
}

func TestSpearman(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Spearman(xs, []float64{2, 4, 9, 16, 30}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("monotone Spearman = %v, want 1", got)
	}
	if got := Spearman(xs, []float64{30, 16, 9, 4, 2}); math.Abs(got+1) > 1e-12 {
		t.Fatalf("reversed Spearman = %v, want -1", got)
	}
}
