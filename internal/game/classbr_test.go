package game

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"greednet/internal/alloc"
	"greednet/internal/core"
)

// fuzzRateVec draws a rate vector exercising ties, near-saturation, and
// outright infeasible regimes — the evaluator must agree with the full
// evaluation everywhere the Allocation contract is defined, not just
// inside D.
func fuzzRateVec(rng *rand.Rand) []float64 {
	n := 1 + rng.Intn(10)
	r := make([]float64, n)
	scale := []float64{0.3, 0.9, 1.0, 1.7}[rng.Intn(4)]
	for i := range r {
		if rng.Intn(3) == 0 {
			// Quantized: forces exact rate ties across users.
			r[i] = float64(1+rng.Intn(4)) / 16
		} else {
			r[i] = rng.Float64()
		}
		r[i] *= scale / float64(n)
	}
	return r
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// At unit multiplicities the deviator evaluator must reproduce the full
// Fair Share evaluation bit for bit for every probe rate, insertion
// position, and tie pattern — the property that lets the per-user best
// response run on the class arithmetic without changing any solve — and
// its congestion report must equal FairShare.Congestion.
func TestFairShareBRDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var br fairShareBR
	fs := alloc.FairShare{}
	ones := make([]int, 16)
	for i := range ones {
		ones[i] = 1
	}
	dst := make([]float64, 16)
	for trial := 0; trial < 1500; trial++ {
		r := fuzzRateVec(rng)
		n := len(r)
		br.congestion(dst[:n], r, ones[:n])
		for j, want := range fs.Congestion(r) {
			if !sameBits(dst[j], want) {
				t.Fatalf("r=%v: congestion[%d] = %v, want %v", r, j, dst[j], want)
			}
		}
		i := rng.Intn(n)
		br.Reset(r, ones[:n], i)
		for probe := 0; probe < 12; probe++ {
			var x float64
			switch probe % 4 {
			case 0:
				x = 1e-9 + rng.Float64()*(1-2e-9)
			case 1:
				// Exact tie with another user's rate.
				x = r[rng.Intn(n)]
			case 2:
				x = r[i]
			default:
				x = rng.Float64() * 1.5
			}
			rr := core.WithRate(r, i, x)
			wantC := fs.CongestionOf(rr, i)
			if gotC := br.CongestionOf(x); !sameBits(gotC, wantC) {
				t.Fatalf("r=%v i=%d x=%v: CongestionOf = %v, want %v", r, i, x, gotC, wantC)
			}
			want1, want2 := fs.OwnDerivs(rr, i)
			got1, got2 := br.OwnDerivs(x)
			if !sameBits(got1, want1) || !sameBits(got2, want2) {
				t.Fatalf("r=%v i=%d x=%v: OwnDerivs = (%v,%v), want (%v,%v)",
					r, i, x, got1, got2, want1, want2)
			}
		}
	}
}

func TestFairShareBRZeroAllocs(t *testing.T) {
	r := []float64{0.11, 0.07, 0.07, 0.23, 0.02, 0.13, 0.05, 0.17}
	ones := []int{1, 1, 1, 1, 1, 1, 1, 1}
	var br fairShareBR
	br.Reset(r, ones, 3) // warm the buffers
	if got := testing.AllocsPerRun(200, func() {
		br.Reset(r, ones, 3)
		br.CongestionOf(0.1)
		br.OwnDerivs(0.1)
	}); got != 0 {
		t.Errorf("warm fairShareBR Reset+probe allocs/op = %v, want 0", got)
	}
}

// coldBlockPos is the block search with no memory between probes: a
// plain bisection for the first sorted block that does not precede the
// deviator sending x under the stable (rate, index) order.
func coldBlockPos(b *fairShareBR, x float64) int {
	lo, hi := 0, b.nb
	for lo < hi {
		mid := (lo + hi) / 2
		if o := b.brate[mid]; o < x || (!(x < o) && b.borig[mid] < b.d) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// blockPalette holds the rates block-search fixtures draw from: few
// values, so ties are the rule, and both signed zeros.
var blockPalette = []float64{math.Copysign(0, -1), 0, 1.0 / 64, 1.0 / 64, 2.0 / 64, 3.0 / 64, 0.1, 0.25, 0.5}

// checkBlockPos decodes a block-search fixture — byte j of prof gives
// player j's palette rate and, when multi, its multiplicity; dev picks
// the deviator; each byte of probes gives a palette rate, a midpoint
// between palette rates or a rate outside [0, 1] — and fails unless
// every blockPos answer equals coldBlockPos.  The probes run in the
// given, ascending and descending orders, then again in the given order
// right after a Reset on a prefix of the players, which shrinks the
// block count under whatever block the last search ended on.
func checkBlockPos(t *testing.T, prof, probes []byte, dev uint8, multi bool) {
	k := len(prof)
	if k == 0 || k > 64 {
		return
	}
	np := len(blockPalette)
	r := make([]float64, k)
	counts := make([]int, k)
	for j, c := range prof {
		r[j] = blockPalette[int(c)%np]
		counts[j] = 1
		if multi {
			counts[j] += int(c) / np % 3
		}
	}
	xs := make([]float64, len(probes))
	for i, c := range probes {
		p := int(c) % (2*np + 2)
		switch {
		case p < np:
			xs[i] = blockPalette[p]
		case p < 2*np-1:
			xs[i] = (blockPalette[p-np] + blockPalette[p-np+1]) / 2
		case p == 2*np+1:
			xs[i] = 1.5
		default:
			xs[i] = -0.125
		}
	}
	var b fairShareBR
	probeAll := func(stage string, xs []float64) {
		t.Helper()
		for _, x := range xs {
			want := coldBlockPos(&b, x)
			if got := b.blockPos(x); got != want {
				t.Fatalf("%s: r=%v counts=%v d=%d x=%v: blockPos = %d, cold search %d",
					stage, r, counts, b.d, x, got, want)
			}
		}
	}
	d := int(dev) % k
	b.Reset(r, counts, d)
	probeAll("given order", xs)
	asc := append([]float64(nil), xs...)
	sort.Float64s(asc)
	probeAll("ascending", asc)
	desc := make([]float64, len(asc))
	for i, x := range asc {
		desc[len(asc)-1-i] = x
	}
	probeAll("descending", desc)
	probeAll("ascending again", asc)
	k = (k + 1) / 2
	r, counts = r[:k], counts[:k]
	b.Reset(r, counts, d%k)
	probeAll("after a shrinking Reset", xs)
}

// The resumable block search must return exactly the cold bisection's
// answer whatever block the previous probe left it on: random profiles
// with heavy ties, signed zeros, class multiplicities (including the
// deviator's own residual block) and probes in every order.
func TestBlockPosMatchesColdSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 3000; trial++ {
		prof := make([]byte, 1+rng.Intn(40))
		for i := range prof {
			prof[i] = byte(rng.Intn(256))
		}
		probes := make([]byte, rng.Intn(24))
		for i := range probes {
			probes[i] = byte(rng.Intn(256))
		}
		checkBlockPos(t, prof, probes, uint8(rng.Intn(256)), trial%2 == 1)
	}
}

// FuzzBlockPos drives checkBlockPos from fuzzed fixtures.
func FuzzBlockPos(f *testing.F) {
	f.Add([]byte{3, 3, 3, 2, 8, 0, 1}, []byte{0, 1, 3, 9, 20, 19, 4, 4}, uint8(2), false)
	f.Add([]byte{12, 21, 3, 30, 3, 7}, []byte{3, 3, 12, 18, 19, 2, 0}, uint8(1), true)
	f.Add([]byte{8, 8, 8, 8}, []byte{8, 7, 19, 18, 0}, uint8(3), true)
	f.Fuzz(func(t *testing.T, prof, probes []byte, dev uint8, multi bool) {
		checkBlockPos(t, prof, probes, dev, multi)
	})
}

// fullGridMaximize is maximize as it stood before the grid early stop,
// kept as the oracle: every one of the n+1 grid points is probed.  It
// also returns the probe count.
func fullGridMaximize(f func(float64) float64, a, b float64, n int, tol float64) (float64, float64, int) {
	probes := 0
	g := func(x float64) float64 {
		probes++
		return f(x)
	}
	h := (b - a) / float64(n)
	bestI, bestF := 0, math.Inf(-1)
	for i := 0; i <= n; i++ {
		if v := g(a + float64(i)*h); v > bestF {
			bestF, bestI = v, i
		}
	}
	lo := a + float64(bestI-1)*h
	if bestI == 0 {
		lo = a
	}
	hi := a + float64(bestI+1)*h
	if bestI == n {
		hi = b
	}
	const invPhi = 0.6180339887498949
	c := hi - invPhi*(hi-lo)
	d := lo + invPhi*(hi-lo)
	fc, fd := g(c), g(d)
	for hi-lo > tol {
		if fc > fd {
			hi, d, fd = d, c, fc
			c = hi - invPhi*(hi-lo)
			fc = g(c)
		} else {
			lo, c, fc = c, d, fd
			d = lo + invPhi*(hi-lo)
			fd = g(d)
		}
	}
	x := lo + (hi-lo)/2
	fx := g(x)
	if math.IsInf(fx, -1) && !math.IsInf(bestF, -1) {
		return a + float64(bestI)*h, bestF, probes
	}
	return x, fx, probes
}

// countingObjective counts the probes of the objective it wraps.
type countingObjective struct {
	f objective
	n int
}

func (c *countingObjective) payoff(x float64) float64 {
	c.n++
	return c.f.payoff(x)
}

func (c *countingObjective) exhausted() bool { return c.f.exhausted() }

// rateFloor pays −Inf below a minimum rate, so its grid meets −Inf
// payoffs that are not floods before its finite ones.
type rateFloor struct {
	core.Utility
	min float64
}

func (u rateFloor) Value(r core.Rate, c core.Congestion) float64 {
	if r < u.min {
		return math.Inf(-1)
	}
	return u.Utility.Value(r, c)
}

// The grid early stop must not change a best response: on Fair Share
// deviator problems with no flood, a flood at the first grid point, a
// flood mid-grid, class multiplicities under a clamped Hi, and −Inf
// payoffs below a rate floor right after a flood on the same evaluator
// (which Reset must forget), for N from 2 to 512, maximize returns the
// full grid's (x, val) bit for bit.  Each category must also take the
// path it was built for, so the stop is exercised rather than assumed.
func TestMaximizeEarlyStopMatchesFullGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	specs, _, _ := pollProfile(4, 0)
	var live, ref fairShareBR
	names := []string{"no flood", "flood at the first grid point", "flood mid-grid",
		"classes (a lone member, or m ≥ 2 under the Hi clamp)", "−Inf below a rate floor after a flood"}
	stopped := make([]int, len(names))
	const trials = 500
	for trial := 0; trial < trials; trial++ {
		cat := trial % len(names)
		n := 2 + rng.Intn(511)
		r := make([]float64, n)
		counts := make([]int, n)
		d := rng.Intn(n)
		opt := BROptions{}.withDefaults()
		total := n
		if cat == 3 {
			total = 0
			for j := range counts {
				counts[j] = 1 + rng.Intn(8)
				total += counts[j]
			}
		} else {
			for j := range counts {
				counts[j] = 1
			}
		}
		for j := range r {
			switch {
			case j > 0 && rng.Intn(3) == 0:
				r[j] = r[rng.Intn(j)] // an exact tie
			case cat == 0:
				r[j] = 0.45 * rng.Float64() / float64(n)
			case cat == 1:
				r[j] = 0.4 + 0.199*rng.Float64()
			default:
				r[j] = (0.2 + 0.75*rng.Float64()) / float64(total)
			}
		}
		switch cat {
		case 0:
			// The others sum below 0.45, so no rate up to Hi = 0.5 floods.
			opt.Hi = 0.5
		case 1:
			// Lo = 0.6 sits above every other rate, and x + σ ≥ 1 there.
			opt.Lo = 0.6
		case 3:
			if rng.Intn(2) == 0 {
				// A lone member among classes keeps the full interval.
				counts[d] = 1
				break
			}
			// A class of m ≥ 2 gets bestResponse's clamp.  Its top gap
			// cannot flood below that Hi, so only the bits are checked.
			counts[d] = 2 + rng.Intn(7)
			top, others := 0.0, 0.0
			for j := range r {
				top = math.Max(top, r[j])
				if j != d {
					others += float64(counts[j]) * r[j]
				}
			}
			opt.Hi = math.Min(2*top, (1-others)/float64(counts[d]))
		}
		u := specs[rng.Intn(len(specs))]
		if cat == 4 {
			u = rateFloor{Utility: u, min: 0.1 * rng.Float64()}
			live.Reset(r, counts, d)
			live.CongestionOf(2) // floods from the top gap
		}

		live.Reset(r, counts, d)
		e := &brEval{k: fairShare, u: u, r: r, counts: counts, d: d, fs: &live}
		probe := &countingObjective{f: e}
		gotX, gotV := maximize(probe, opt.Lo, opt.Hi, opt.GridPoints, opt.Tol)
		ref.Reset(r, counts, d)
		wantX, wantV, full := fullGridMaximize(func(x float64) float64 {
			return u.Value(x, ref.CongestionOf(x))
		}, opt.Lo, opt.Hi, opt.GridPoints, opt.Tol)
		if !sameBits(gotX, wantX) || !sameBits(gotV, wantV) {
			t.Fatalf("%s, N=%d d=%d: maximize = (%v, %v), full grid (%v, %v)",
				names[cat], n, d, gotX, gotV, wantX, wantV)
		}
		saved := full - probe.n
		if saved > 0 {
			stopped[cat]++
		}
		var ok bool
		switch cat {
		case 0:
			ok = saved == 0
		case 1:
			ok = saved == opt.GridPoints
		case 2, 4:
			ok = saved > 0 && saved < opt.GridPoints
		default:
			ok = saved >= 0 && saved <= opt.GridPoints
		}
		if !ok {
			t.Fatalf("%s, N=%d d=%d: the grid stop saved %d of %d grid probes",
				names[cat], n, d, saved, opt.GridPoints+1)
		}
	}
	if stopped[3] == 0 {
		t.Errorf("no class problem stopped its grid early")
	}
	t.Logf("grids stopped early per category %v: %v of %d each", names, stopped, trials/len(names))
}
