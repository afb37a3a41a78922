package sweep

import (
	"context"
	"errors"
	"testing"

	"greednet/internal/alloc"
	"greednet/internal/core"
	"greednet/internal/utility"
)

// TestSweepCtxCanceled checks every sweep's Ctx variant reports the typed
// cancellation error on a pre-canceled context (the sweeps poll at
// claim/row granularity, so a dead-on-arrival ctx must stop all of them
// before any work).
func TestSweepCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	us2 := utility.Identical(utility.NewLinear(1, 0.25), 2)
	checks := []struct {
		name string
		run  func() error
	}{
		{"Eigenvalue", func() error {
			_, err := EigenvalueCtx(ctx, 1, 3, []float64{0.2, 0.3})
			return err
		}},
		{"EfficiencyGap", func() error {
			_, err := EfficiencyGapCtx(ctx, 1, 0.25, []int{2, 3})
			return err
		}},
		{"Protection", func() error {
			_, err := ProtectionCtx(ctx, 0.1, 2, []float64{0.1, 0.5})
			return err
		}},
		{"GHCWidths", func() error {
			_, err := GHCWidthsCtx(ctx, 2, 0.25, 5)
			return err
		}},
		{"InteractiveDelay", func() error {
			_, err := InteractiveDelayCtx(ctx, 0.05, []float64{0.1, 0.5})
			return err
		}},
		{"ReactionCurves", func() error {
			_, err := ReactionCurvesCtx(ctx, alloc.FairShare{}, us2, 4)
			return err
		}},
		{"NewtonResiduals", func() error {
			_, err := NewtonResidualsCtx(ctx, 1, 2, 3)
			return err
		}},
	}
	for _, c := range checks {
		if err := c.run(); !errors.Is(err, core.ErrCanceled) {
			t.Errorf("%s: got %v, want core.ErrCanceled", c.name, err)
		}
	}
}
