// Package sweep generates the parameter-sweep data series behind the
// reproduction's figures: instability spectra versus congestion
// sensitivity, the selfish efficiency gap versus population size, victim
// congestion versus attacker rate, interactive delay versus bulk load, and
// learning-box collapse per round.  Each sweep returns a rectangular Table
// that can be written as CSV or rendered as an ASCII chart.
package sweep

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"greednet/internal/alloc"
	"greednet/internal/core"
	"greednet/internal/dynamics"
	"greednet/internal/game"
	"greednet/internal/mm1"
	"greednet/internal/numeric"
	"greednet/internal/parallel"
	"greednet/internal/utility"
)

// Table is a rectangular data series with named columns.
type Table struct {
	// Name identifies the sweep.
	Name string
	// Header names the columns.
	Header []string
	// Rows holds the samples.
	Rows [][]float64
}

// WriteCSV writes the table in CSV form.
func (t Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	rec := make([]string, len(t.Header))
	for _, row := range t.Rows {
		if len(row) != len(t.Header) {
			return fmt.Errorf("sweep: ragged row in %s", t.Name)
		}
		for i, v := range row {
			rec[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Column returns the values of the named column.
func (t Table) Column(name string) []float64 {
	idx := -1
	for i, h := range t.Header {
		if h == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil
	}
	out := make([]float64, len(t.Rows))
	for k, row := range t.Rows {
		out[k] = row[idx]
	}
	return out
}

// EigenvalueCtx sweeps the proportional relaxation spectral radius against
// the congestion sensitivity γ for N identical linear users, with the
// analytic prediction and the 1−N limit (the paper's §4.2.3 claim).
// Rows are computed independently on a pool of workers (≤ 0 means
// runtime.GOMAXPROCS(0)) and assembled in γ order, so the table is
// identical for every worker count; on error the table holds the rows
// that precede the first failing γ, matching the sequential contract.
// The pool stops claiming new γ rows once ctx fires and the typed
// core.ErrCanceled / core.ErrDeadline is returned with whatever prefix of
// rows completed (assembly stops at the first missing row, so the partial
// table is still a clean prefix).
func EigenvalueCtx(ctx context.Context, workers, n int, gammas []float64) (Table, error) {
	t := Table{
		Name:   "eigenvalue",
		Header: []string{"gamma", "load", "rho", "rho_analytic", "limit"},
	}
	rows := make([][]float64, len(gammas))
	errs := make([]error, len(gammas))
	ctxErr := parallel.MapOrderedCtx(ctx, workers, len(gammas), func(k int) error {
		gamma := gammas[k]
		us := utility.Identical(utility.NewLinear(1, gamma), n)
		r0 := make([]float64, n)
		for i := range r0 {
			r0[i] = 0.5 / float64(n)
		}
		res, err := game.SolveNashCtx(ctx, alloc.Proportional{}, us, r0, game.NashOptions{})
		if err != nil || !res.Converged {
			errs[k] = fmt.Errorf("sweep: proportional Nash failed at γ=%v", gamma)
			return nil
		}
		A := game.RelaxationMatrix(alloc.Proportional{}, us, res.R, 1e-6)
		rho, err := numeric.SpectralRadius(A)
		if err != nil {
			errs[k] = err
			return nil
		}
		s := mm1.Sum(res.R)
		tt := 1 - s
		analytic := float64(n-1) * (tt + 2*res.R[0]) / (2 * (tt + res.R[0]))
		rows[k] = []float64{gamma, s, rho, analytic, float64(n - 1)}
		return nil
	})
	if ctxErr != nil {
		// Canceled: which rows ran (and hence which row errors exist) is
		// scheduling-dependent, so report the typed ctx error with the
		// clean prefix of completed rows.
		for k := range gammas {
			if rows[k] == nil {
				break
			}
			t.Rows = append(t.Rows, rows[k])
		}
		return t, ctxErr
	}
	for k := range gammas {
		if errs[k] != nil {
			return t, errs[k]
		}
		t.Rows = append(t.Rows, rows[k])
	}
	return t, nil
}

// EfficiencyGapCtx sweeps the per-user utility loss of the FIFO Nash
// equilibrium relative to the symmetric Pareto point as the population
// grows (the tragedy-of-the-commons curve of §4.1.1).  Per-population
// rows run on a pool of workers and assemble in input order; see
// EigenvalueCtx for the determinism and cancellation contracts (typed
// error, clean prefix of rows).
func EfficiencyGapCtx(ctx context.Context, workers int, gamma float64, ns []int) (Table, error) {
	t := Table{
		Name:   "efficiency-gap",
		Header: []string{"n", "nash_rate", "pareto_rate", "u_nash", "u_pareto", "relative_loss"},
	}
	u := utility.NewLinear(1, gamma)
	rows := make([][]float64, len(ns))
	errs := make([]error, len(ns))
	ctxErr := parallel.MapOrderedCtx(ctx, workers, len(ns), func(k int) error {
		n := ns[k]
		rp, cp, ok := game.SymmetricParetoRate(u, n)
		if !ok {
			errs[k] = fmt.Errorf("sweep: no Pareto rate for n=%d", n)
			return nil
		}
		us := utility.Identical(u, n)
		r0 := make([]float64, n)
		for i := range r0 {
			r0[i] = 0.5 / float64(n)
		}
		res, err := game.SolveNashCtx(ctx, alloc.Proportional{}, us, r0, game.NashOptions{})
		if err != nil || !res.Converged {
			errs[k] = fmt.Errorf("sweep: FIFO Nash failed at n=%d", n)
			return nil
		}
		uN := u.Value(res.R[0], res.C[0])
		uP := u.Value(rp, cp)
		loss := 0.0
		if uP != 0 { //lint:allow floateq division guard: relative loss undefined at exactly-zero utility
			loss = (uP - uN) / math.Abs(uP)
		}
		rows[k] = []float64{float64(n), res.R[0], rp, uN, uP, loss}
		return nil
	})
	if ctxErr != nil {
		for k := range ns {
			if rows[k] == nil {
				break
			}
			t.Rows = append(t.Rows, rows[k])
		}
		return t, ctxErr
	}
	for k := range ns {
		if errs[k] != nil {
			return t, errs[k]
		}
		t.Rows = append(t.Rows, rows[k])
	}
	return t, nil
}

// ProtectionCtx sweeps a victim's congestion against the attacker's rate
// under FIFO and Fair Share, with the Definition-7 bound (the cheater
// curve).  It polls ctx once per attack rate; a canceled sweep returns
// the rows computed so far with the typed core.ErrCanceled /
// core.ErrDeadline.
func ProtectionCtx(ctx context.Context, victimRate float64, victims int, attackRates []float64) (Table, error) {
	t := Table{
		Name:   "protection",
		Header: []string{"attack_rate", "victim_c_fifo", "victim_c_fairshare", "bound"},
	}
	n := victims + 1
	bound := mm1.ProtectionBound(n, victimRate) //lint:allow feasguard Definition-7 bound is the reference curve; finite whenever the victim rate is
	for _, atk := range attackRates {
		if err := core.CtxErr(ctx); err != nil {
			return t, err
		}
		r := make([]float64, n)
		for i := 0; i < victims; i++ {
			r[i] = victimRate
		}
		r[victims] = atk
		cf := alloc.Proportional{}.CongestionOf(r, 0) //lint:allow feasguard the cheater sweep pushes the attacker past capacity by design
		cs := alloc.FairShare{}.CongestionOf(r, 0)    //lint:allow feasguard the cheater sweep pushes the attacker past capacity by design
		t.Rows = append(t.Rows, []float64{atk, cf, cs, bound})
	}
	return t, nil
}

// GHCWidthsCtx sweeps the generalized-hill-climbing candidate-box width
// per elimination round under both disciplines (the Theorem-5 collapse
// curve).  Rows are padded with the terminal width once a run stops.  The
// context is threaded through both elimination runs; a canceled sweep
// returns an empty-rowed table with the typed core.ErrCanceled /
// core.ErrDeadline (per-round widths from a truncated run would silently
// flatten the collapse curve).
func GHCWidthsCtx(ctx context.Context, n int, gamma float64, rounds int) (Table, error) {
	t := Table{
		Name:   "ghc-widths",
		Header: []string{"round", "width_fairshare", "width_fifo"},
	}
	us := utility.Identical(utility.NewLinear(1, gamma), n)
	opt := dynamics.EliminationOptions{MaxRounds: rounds, Tol: 1e-9}
	fs, err := dynamics.GeneralizedHillClimbCtx(ctx, alloc.FairShare{}, us, dynamics.NewBox(n, 1e-6, 1-1e-6), opt)
	if err != nil {
		return t, err
	}
	pr, err := dynamics.GeneralizedHillClimbCtx(ctx, alloc.Proportional{}, us, dynamics.NewBox(n, 1e-6, 1-1e-6), opt)
	if err != nil {
		return t, err
	}
	get := func(ws []float64, k int) float64 {
		if k < len(ws) {
			return ws[k]
		}
		if len(ws) == 0 {
			return 1
		}
		return ws[len(ws)-1]
	}
	//lint:allow ctxflow O(rounds) row assembly from widths both solves already produced; nothing cancelable remains
	for k := 0; k < rounds; k++ {
		t.Rows = append(t.Rows, []float64{float64(k + 1), get(fs.Widths, k), get(pr.Widths, k)})
	}
	return t, nil
}

// InteractiveDelayCtx sweeps the analytic delay of a fixed light flow as
// a bulk flow's offered rate grows, under FIFO and Fair Share (the §5.2
// FTP-vs-Telnet curve).  It polls ctx once per bulk rate; a canceled
// sweep returns the rows computed so far with the typed core.ErrCanceled
// / core.ErrDeadline.
func InteractiveDelayCtx(ctx context.Context, lightRate float64, bulkRates []float64) (Table, error) {
	t := Table{
		Name:   "interactive-delay",
		Header: []string{"bulk_rate", "delay_fifo", "delay_fairshare"},
	}
	for _, b := range bulkRates {
		if err := core.CtxErr(ctx); err != nil {
			return t, err
		}
		r := []float64{lightRate, b}
		df := alloc.Proportional{}.CongestionOf(r, 0) / lightRate //lint:allow feasguard the FTP-vs-Telnet sweep drives the bulk flow toward saturation by design
		ds := alloc.FairShare{}.CongestionOf(r, 0) / lightRate    //lint:allow feasguard the FTP-vs-Telnet sweep drives the bulk flow toward saturation by design
		t.Rows = append(t.Rows, []float64{b, df, ds})
	}
	return t, nil
}

// ReactionCurvesCtx samples the two users' best-reply functions on a grid
// — the classic duopoly-style figure whose crossing is the Nash
// equilibrium.  Columns: the opponent's rate, user 1's best reply to it,
// and user 0's best reply to it.  It polls ctx once per grid point; a
// canceled sweep returns the rows computed so far with the typed
// core.ErrCanceled / core.ErrDeadline.
func ReactionCurvesCtx(ctx context.Context, a core.Allocation, us core.Profile, points int) (Table, error) {
	t := Table{
		Name:   "reaction-curves",
		Header: []string{"opponent_rate", "br_user1", "br_user0"},
	}
	if len(us) != 2 {
		return t, fmt.Errorf("sweep: ReactionCurves needs exactly 2 users, got %d", len(us))
	}
	if points < 2 {
		points = 2
	}
	// One solver workspace and two reusable profile vectors serve every
	// grid point; only the opponent slot changes between points.
	ws := game.NewWorkspace()
	r1 := []float64{0, 0.1} // user 1 replies to user 0 at x
	r0 := []float64{0.1, 0} // user 0 replies to user 1 at x
	for k := 0; k < points; k++ {
		if err := core.CtxErr(ctx); err != nil {
			return t, err
		}
		x := 0.01 + 0.9*float64(k)/float64(points-1)
		r1[0] = x
		r0[1] = x
		br1, _ := game.BestResponseWS(ws, a, us[1], r1, 1, game.BROptions{})
		br0, _ := game.BestResponseWS(ws, a, us[0], r0, 0, game.BROptions{})
		t.Rows = append(t.Rows, []float64{x, br1, br0})
	}
	return t, nil
}

// NewtonResidualsCtx sweeps synchronous-Newton residuals per step under
// both disciplines near their equilibria (the Theorem-7 convergence
// curve).  The two disciplines' solves run concurrently on the pool, and
// results are kept positionally — column i belongs to allocs[i] by
// construction, so a renamed Name() can never silently turn a column into
// all-NaN.  A canceled sweep returns an empty-rowed table with the typed
// core.ErrCanceled / core.ErrDeadline (a single missing discipline would
// leave an all-NaN column that reads as divergence).
func NewtonResidualsCtx(ctx context.Context, workers, n, steps int) (Table, error) {
	t := Table{
		Name:   "newton-residuals",
		Header: []string{"step", "resid_fairshare", "resid_fifo"},
	}
	us := make(core.Profile, n)
	//lint:allow ctxflow O(n) profile construction before the sweep; the deadline governs the solves, not their setup
	for i := range us {
		us[i] = utility.NewLinear(1, 0.12+0.08*float64(i))
	}
	allocs := []core.Allocation{alloc.FairShare{}, alloc.Proportional{}}
	resids := make([][]float64, len(allocs))
	errs := make([]error, len(allocs))
	ctxErr := parallel.MapOrderedCtx(ctx, workers, len(allocs), func(j int) error {
		a := allocs[j]
		r0 := make([]float64, n)
		for i := range r0 {
			r0[i] = 0.3 / float64(n)
		}
		res, err := game.SolveNashCtx(ctx, a, us, r0, game.NashOptions{})
		if err != nil || !res.Converged {
			errs[j] = fmt.Errorf("sweep: Nash failed for %s", a.Name())
			return nil
		}
		start := append([]float64(nil), res.R...)
		for i := range start {
			start[i] *= 1.02
		}
		resids[j] = game.NewtonConvergence(a, us, start, steps)
		return nil
	})
	if ctxErr != nil {
		return t, ctxErr
	}
	for _, err := range errs {
		if err != nil {
			return t, err
		}
	}
	fs, pr := resids[0], resids[1]
	for k := 0; k <= steps; k++ {
		row := []float64{float64(k), math.NaN(), math.NaN()}
		if k < len(fs) {
			row[1] = fs[k]
		}
		if k < len(pr) {
			row[2] = pr[k]
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
