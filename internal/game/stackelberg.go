package game

import (
	"context"
	"math"

	"greednet/internal/alloc"
	"greednet/internal/core"
)

// StackelbergResult reports a leader/follower equilibrium (Definition 5).
type StackelbergResult struct {
	// Leader is the index of the leading user.
	Leader int
	// R and C are the equilibrium rates and congestions: the leader's rate
	// maximizes her utility given that the followers settle into the Nash
	// equilibrium of their subsystem.
	R, C []float64
	// LeaderUtility is the leader's achieved utility.
	LeaderUtility float64
	// FollowersConverged is false when some inner follower solve failed to
	// converge at the chosen leader rate.
	FollowersConverged bool
}

// StackOptions configures SolveStackelberg.
type StackOptions struct {
	// Grid is the number of leader-rate grid cells scanned before local
	// refinement; default 40.
	Grid int
	// Tol is the leader-rate refinement tolerance; default 1e-6.
	Tol float64
	// Nash configures the inner follower equilibration.
	Nash NashOptions
}

func (o StackOptions) withDefaults() StackOptions {
	if o.Grid <= 0 {
		o.Grid = 40
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	return o
}

// SolveStackelberg computes the Stackelberg equilibrium with the given
// leader: the leader commits to a rate, the remaining users reach the Nash
// equilibrium of the induced subsystem, and the leader picks the rate whose
// induced outcome she likes best.  Under Fair Share the result coincides
// with the Nash equilibrium (Theorem 5); under proportional allocations the
// leader generally gains.
func SolveStackelberg(a core.Allocation, us core.Profile, leader int, r0 []core.Rate, opt StackOptions) (StackelbergResult, error) {
	opt = opt.withDefaults()
	n := len(r0)
	free := make([]bool, n)
	for i := range free {
		free[i] = i != leader
	}
	inner := opt.Nash
	inner.Free = free

	followersOK := true
	// value evaluates the leader's utility when committing to rate x,
	// equilibrating the followers from the warm start.  One workspace and
	// one start buffer serve every leader-rate probe: the inner solver
	// copies the start vector before iterating, so the buffer is free for
	// reuse as soon as SolveNashWS is entered.
	ws := NewWorkspace()
	warm := append([]float64(nil), r0...)
	start := make([]float64, n)
	value := func(x float64) float64 {
		copy(start, warm)
		start[leader] = x
		res, err := SolveNashWS(context.Background(), ws, a, us, start, inner)
		if err != nil {
			return math.Inf(-1)
		}
		if !res.Converged {
			followersOK = false
		}
		copy(warm, res.R)
		return us[leader].Value(x, alloc.CongestionOfInto(a, &ws.aws, ws.congestion(n), res.R, leader))
	}
	x, _ := maximize(objectiveFunc(value), 1e-6, 1-1e-6, opt.Grid, opt.Tol)

	copy(start, warm)
	start[leader] = x
	res, err := SolveNashWS(context.Background(), ws, a, us, start, inner)
	if err != nil {
		return StackelbergResult{}, err
	}
	out := StackelbergResult{
		Leader:             leader,
		R:                  res.R,
		C:                  a.Congestion(res.R), //lint:allow feasguard reports C(r) at the solved point; the Allocation contract defines it on all of R+^n
		FollowersConverged: followersOK && res.Converged,
	}
	out.LeaderUtility = us[leader].Value(out.R[leader], out.C[leader])
	return out, nil
}

// LeaderAdvantage compares the leader's Stackelberg utility to her Nash
// utility and returns the difference (≥ 0 by definition up to solver
// noise).  Theorem 5 says Fair Share makes the advantage exactly zero.
func LeaderAdvantage(a core.Allocation, us core.Profile, leader int, r0 []core.Rate, opt StackOptions) (float64, StackelbergResult, NashResult, error) {
	st, err := SolveStackelberg(a, us, leader, r0, opt)
	if err != nil {
		return 0, StackelbergResult{}, NashResult{}, err
	}
	nash, err := SolveNash(a, us, r0, opt.Nash)
	if err != nil {
		return 0, StackelbergResult{}, NashResult{}, err
	}
	nu := us[leader].Value(nash.R[leader], nash.C[leader])
	return st.LeaderUtility - nu, st, nash, nil
}
