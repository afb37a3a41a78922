package profkey

import (
	"math"
	"testing"
)

func TestPerUserSortsAndRoundTrips(t *testing.T) {
	ids := []string{"b", "a", "c"}
	rates := []float64{0.2, 0.1, 0.3}
	specs := []string{"linear:1,4", "linear:1,4", "log:2,1"}
	got := PerUser(ids, rates, specs)
	want := "a=" + Rate(0.1) + ":linear:1,4;" +
		"b=" + Rate(0.2) + ":linear:1,4;" +
		"c=" + Rate(0.3) + ":log:2,1;"
	if got != want {
		t.Fatalf("PerUser:\n got %q\nwant %q", got, want)
	}
	// Permuting the input must not change the key.
	perm := PerUser([]string{"c", "b", "a"}, []float64{0.3, 0.2, 0.1},
		[]string{"log:2,1", "linear:1,4", "linear:1,4"})
	if perm != got {
		t.Fatalf("PerUser not permutation-invariant:\n %q\n %q", perm, got)
	}
}

func TestCoalesceMergesIdenticalUsers(t *testing.T) {
	specs := []string{"linear:1,4", "log:2,1", "linear:1,4", "linear:1,4"}
	rates := []float64{0.1, 0.2, 0.1, 0.15}
	cls := Coalesce(specs, rates)
	want := []ClassEntry{
		{Spec: "linear:1,4", RateVal: 0.1, Count: 2},
		{Spec: "linear:1,4", RateVal: 0.15, Count: 1},
		{Spec: "log:2,1", RateVal: 0.2, Count: 1},
	}
	if len(cls) != len(want) {
		t.Fatalf("Coalesce: got %d classes, want %d: %+v", len(cls), len(want), cls)
	}
	for i := range want {
		if cls[i] != want[i] {
			t.Errorf("class %d: got %+v, want %+v", i, cls[i], want[i])
		}
	}
}

// TestClassKeyRoundTrip pins the round-trip property: the class key of
// an expanded class set is the key of the classes themselves, whatever
// order the users arrive in.
func TestClassKeyRoundTrip(t *testing.T) {
	classes := []ClassEntry{
		{Spec: "linear:1,2", RateVal: 0.05, Count: 3},
		{Spec: "linear:1,4", RateVal: 0.01, Count: 2},
	}
	// Expand into per-user specs/rates in a scrambled order.
	specs := []string{"linear:1,4", "linear:1,2", "linear:1,2", "linear:1,4", "linear:1,2"}
	rates := []float64{0.01, 0.05, 0.05, 0.01, 0.05}
	if got, want := Classes(Coalesce(specs, rates)), Classes(classes); got != want {
		t.Fatalf("round trip:\n got %q\nwant %q", got, want)
	}
	back := Coalesce(specs, rates)
	if len(back) != len(classes) {
		t.Fatalf("Coalesce: %d classes, want %d", len(back), len(classes))
	}
	for i := range classes {
		if back[i] != classes[i] {
			t.Errorf("class %d: got %+v, want %+v", i, back[i], classes[i])
		}
	}
}

func TestUlpApartRatesStayDistinct(t *testing.T) {
	r := 0.1
	r2 := math.Nextafter(r, 1)
	cls := Coalesce([]string{"linear:1,4", "linear:1,4"}, []float64{r, r2})
	if len(cls) != 2 {
		t.Fatalf("ulp-apart rates coalesced: %+v", cls)
	}
	if Classes(Coalesce([]string{"s"}, []float64{r})) == Classes(Coalesce([]string{"s"}, []float64{r2})) {
		t.Fatal("ulp-apart rates share a class key")
	}
}

func TestNaNAndSignedZeroRates(t *testing.T) {
	cls := Coalesce([]string{"s", "s", "s"}, []float64{math.NaN(), math.NaN(), 0.1})
	// Two identical-payload NaNs may merge (same bits); they must never
	// merge with the finite rate.
	for _, c := range cls {
		if !math.IsNaN(c.RateVal) && c.Count != 1 {
			t.Fatalf("finite class absorbed a NaN: %+v", cls)
		}
	}
	zc := Coalesce([]string{"s", "s"}, []float64{0.0, math.Copysign(0, -1)})
	if len(zc) != 2 {
		t.Fatalf("+0 and -0 coalesced: %+v", zc)
	}
}
