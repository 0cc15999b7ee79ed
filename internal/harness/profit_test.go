package harness

import (
	"context"
	"testing"

	"srvsim/internal/compiler"
	"srvsim/internal/workloads"
)

// TestCostModelTracksMeasurement validates the static profitability model
// against the cycle simulator across the whole workload suite: the
// estimate must rank loops sensibly (within a 2x band of the measured
// speedup) and never reject a loop that measures clearly profitable.
func TestCostModelTracksMeasurement(t *testing.T) {
	cm := compiler.DefaultCostModel()
	checked := 0
	for _, b := range workloads.All() {
		lr, err := testEnv().RunLoop(context.Background(), b.Name, b.Loops[0], 7)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		loop := b.Loops[0].Shape.Build()
		est := cm.Estimate(loop)
		checked++
		ratio := est / lr.Speedup
		if ratio < 0.4 || ratio > 2.5 {
			t.Errorf("%s/%s: estimate %.2fx vs measured %.2fx (ratio %.2f outside [0.4, 2.5])",
				b.Name, b.Loops[0].Shape.Name, est, lr.Speedup, ratio)
		}
		if lr.Speedup > 1.5 && !cm.Profitable(loop) {
			t.Errorf("%s: measured %.2fx but the model rejects it", b.Name, lr.Speedup)
		}
	}
	if checked != 16 {
		t.Fatalf("checked %d benchmarks, want 16", checked)
	}
}
