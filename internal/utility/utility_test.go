package utility

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"greednet/internal/core"
	"greednet/internal/numeric"
)

func sampleUtilities() []core.Utility {
	return []core.Utility{
		Linear{A: 1, Gamma: 4},
		Exponential{Alpha: 2, Beta: 5, Gamma: 1, Nu: 3, R0: 0.2, C0: 0.5},
		Log{W: 0.8, Gamma: 2},
		Power{A: 1, Gamma: 2, P: 1.5},
		Sqrt{W: 1.2, Gamma: 3},
	}
}

func TestMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, u := range sampleUtilities() {
		for trial := 0; trial < 200; trial++ {
			r := 0.01 + 0.8*rng.Float64()
			c := 0.01 + 5*rng.Float64()
			dr := 0.001 + 0.01*rng.Float64()
			dc := 0.001 + 0.01*rng.Float64()
			if u.Value(r+dr, c) <= u.Value(r, c) {
				t.Fatalf("%v not increasing in r at (%v,%v)", u, r, c)
			}
			if u.Value(r, c+dc) >= u.Value(r, c) {
				t.Fatalf("%v not decreasing in c at (%v,%v)", u, r, c)
			}
		}
	}
}

func TestGradientMatchesFD(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, u := range sampleUtilities() {
		for trial := 0; trial < 100; trial++ {
			r := 0.05 + 0.8*rng.Float64()
			c := 0.05 + 5*rng.Float64()
			dr, dc := u.Gradient(r, c)
			fdr := numeric.Derivative(func(x float64) float64 { return u.Value(x, c) }, r, 1e-7)
			fdc := numeric.Derivative(func(x float64) float64 { return u.Value(r, x) }, c, 1e-7)
			if math.Abs(dr-fdr) > 1e-4*(1+math.Abs(dr)) {
				t.Fatalf("%v ∂U/∂r = %v, FD %v at (%v,%v)", u, dr, fdr, r, c)
			}
			if math.Abs(dc-fdc) > 1e-4*(1+math.Abs(dc)) {
				t.Fatalf("%v ∂U/∂c = %v, FD %v at (%v,%v)", u, dc, fdc, r, c)
			}
			if dr <= 0 || dc >= 0 {
				t.Fatalf("%v gradient signs wrong: %v %v", u, dr, dc)
			}
		}
	}
}

// infCongestionCases is one instance of every utility in this package,
// and Scaled over each of the others.  TestInfiniteCongestionIsWorst
// fails when a type with a Value method is missing here.
func infCongestionCases() []core.Utility {
	base := append(sampleUtilities(), DelaySensitive{A: 1, Gamma: 2})
	out := append([]core.Utility(nil), base...)
	for i, u := range base {
		out = append(out, Scaled{U: u, Scale: 0.5 + float64(i), Shift: float64(i) - 2})
	}
	return out
}

// Every utility must map c = +Inf to −Inf at every rate in (0, 1) — the
// core.Utility rule the best-response grid's early stop relies on: once
// a probe floods, every larger grid point pays −Inf and none can beat
// the incumbent.  The test parses this package's sources so a new
// utility type without a case here fails too.
func TestInfiniteCongestionIsWorst(t *testing.T) {
	covered := map[string]bool{}
	for _, u := range infCongestionCases() {
		covered[reflect.TypeOf(u).Name()] = true
		for i := 0; i <= 64; i++ {
			r := math.Max(1e-12, math.Min(float64(i)/64, 1-1e-12))
			if v := u.Value(r, math.Inf(1)); !math.IsInf(v, -1) {
				t.Errorf("%T%+v: Value(%v, +Inf) = %v, want -Inf", u, u, r, v)
			}
		}
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv == nil || fn.Name.Name != "Value" {
					continue
				}
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok && !covered[id.Name] {
					t.Errorf("utility %s has no case in infCongestionCases", id.Name)
				}
			}
		}
	}
}

func TestConcavityAlongLines(t *testing.T) {
	// Every AU family here should have concave restrictions to segments in
	// the (r, c) quadrant (convex preferences).
	rng := rand.New(rand.NewSource(3))
	for _, u := range sampleUtilities() {
		for trial := 0; trial < 200; trial++ {
			r1, c1 := 0.05+0.6*rng.Float64(), 0.05+4*rng.Float64()
			r2, c2 := 0.05+0.6*rng.Float64(), 0.05+4*rng.Float64()
			mid := u.Value((r1+r2)/2, (c1+c2)/2)
			avg := (u.Value(r1, c1) + u.Value(r2, c2)) / 2
			if mid < avg-1e-9 {
				t.Fatalf("%v not concave between (%v,%v) and (%v,%v): mid %v < avg %v",
					u, r1, c1, r2, c2, mid, avg)
			}
		}
	}
}

func TestMarginalRateNegative(t *testing.T) {
	for _, u := range sampleUtilities() {
		if m := core.MarginalRate(u, 0.3, 1.2); m >= 0 {
			t.Errorf("%v marginal rate %v should be negative", u, m)
		}
	}
}

func TestScaledPreservesOrdering(t *testing.T) {
	u := Linear{A: 1, Gamma: 3}
	s := Scaled{U: u, Scale: 2.5, Shift: -7}
	pts := [][2]float64{{0.1, 0.2}, {0.3, 0.5}, {0.2, 2}, {0.6, 0.1}}
	for i := range pts {
		for j := range pts {
			a := u.Value(pts[i][0], pts[i][1]) < u.Value(pts[j][0], pts[j][1])
			b := s.Value(pts[i][0], pts[i][1]) < s.Value(pts[j][0], pts[j][1])
			if a != b {
				t.Fatalf("Scaled changed preference order between %v and %v", pts[i], pts[j])
			}
		}
	}
	// Marginal rate is invariant under monotone affine rescaling.
	mu := core.MarginalRate(u, 0.3, 1)
	ms := core.MarginalRate(s, 0.3, 1)
	if math.Abs(mu-ms) > 1e-12 {
		t.Errorf("marginal rate not ordinal: %v vs %v", mu, ms)
	}
}

func TestPlantNashFDC(t *testing.T) {
	// PlantNash puts M(r0, c0) = −slope exactly.
	u := PlantNash(0.25, 0.8, 3.5, 10, 10)
	m := core.MarginalRate(u, 0.25, 0.8)
	if math.Abs(m+3.5) > 1e-12 {
		t.Errorf("planted marginal rate %v, want -3.5", m)
	}
}

func TestRandomAUProducesValidUtilities(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		u := RandomAU(rng)
		dr, dc := u.Gradient(0.3, 1)
		if dr <= 0 || dc >= 0 {
			t.Fatalf("RandomAU %v has bad gradient signs", u)
		}
	}
}

func TestIdenticalProfile(t *testing.T) {
	u := Linear{A: 1, Gamma: 2}
	p := Identical(u, 5)
	if len(p) != 5 {
		t.Fatalf("profile length %d", len(p))
	}
	for _, q := range p {
		if q.Value(0.2, 0.3) != u.Value(0.2, 0.3) {
			t.Fatal("Identical should replicate the utility")
		}
	}
}

func TestDelaySensitiveShape(t *testing.T) {
	u := DelaySensitive{A: 1, Gamma: 2}
	// Increasing in r (for fixed c) and decreasing in c.
	if u.Value(0.4, 1) <= u.Value(0.2, 1) {
		t.Error("delay-sensitive should increase in r")
	}
	if u.Value(0.3, 2) >= u.Value(0.3, 1) {
		t.Error("delay-sensitive should decrease in c")
	}
	if !math.IsInf(u.Value(0, 1), -1) {
		t.Error("zero rate should be -Inf for delay-sensitive")
	}
}
