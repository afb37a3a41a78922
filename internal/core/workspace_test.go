package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// Ascending must reproduce the unique stable argsort permutation —
// including across ties, where stability is what makes the fast paths
// bit-identical to the sort.SliceStable-based slow paths.
func TestAscendingMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var ws Workspace
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(12)
		keys := make([]float64, n)
		for i := range keys {
			// Coarse quantization forces frequent ties.
			keys[i] = float64(rng.Intn(5)) / 10
		}
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool { return keys[want[a]] < keys[want[b]] })
		got := ws.Ascending(keys)
		if len(got) != len(want) {
			t.Fatalf("trial %d: len %d, want %d", trial, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("trial %d: keys %v: got %v, want %v", trial, keys, got, want)
			}
		}
	}
}

func TestWorkspaceNilSafe(t *testing.T) {
	var ws *Workspace
	idx := ws.Ascending([]float64{0.3, 0.1, 0.2})
	if idx[0] != 1 || idx[1] != 2 || idx[2] != 0 {
		t.Fatalf("nil-workspace Ascending = %v", idx)
	}
	if got := len(ws.VecA(4)); got != 4 {
		t.Fatalf("nil-workspace VecA len = %d", got)
	}
	if got := len(ws.VecB(7)); got != 7 {
		t.Fatalf("nil-workspace VecB len = %d", got)
	}
}

// Scratch vectors must be independent of each other and resize without
// losing capacity.
func TestWorkspaceVecsIndependent(t *testing.T) {
	var ws Workspace
	a := ws.VecA(3)
	b := ws.VecB(3)
	for i := range a {
		a[i] = 1
		b[i] = 2
	}
	for i := range a {
		if ApproxEq(a[i], b[i], 0) {
			t.Fatalf("VecA and VecB alias at %d", i)
		}
	}
	big := ws.VecA(8)
	if len(big) != 8 {
		t.Fatalf("VecA regrow len = %d", len(big))
	}
	small := ws.VecA(2)
	if len(small) != 2 || cap(small) < 2 {
		t.Fatalf("VecA shrink len=%d cap=%d", len(small), cap(small))
	}
}

// A warm workspace must service Ascending and the scratch vectors without
// allocating — this is the property every fast path builds on — on the
// repair path (a one-entry move) and on the budget fallback (a reversal)
// alike.
func TestWorkspaceZeroAllocSteadyState(t *testing.T) {
	keys := []float64{0.4, 0.1, 0.1, 0.3, 0.2, 0.25, 0.05, 0.15}
	moved := append([]float64(nil), keys...)
	moved[3] = 0.01
	// reversed ranks the keys in the opposite order, so each of the two
	// calls undoes the other's permutation: n(n−1)/2 = 28 moves > 2n.
	reversed := make([]float64, len(keys))
	for k, i := range stableArgsort(keys) {
		reversed[i] = -float64(k)
	}
	for _, tc := range []struct {
		path  string
		other []float64
	}{{"repair", moved}, {"budget", reversed}} {
		var ws Workspace
		ws.Ascending(keys) // warm
		if got := ascendingPath(&ws, tc.other); got != tc.path {
			t.Fatalf("%s case takes the %s path", tc.path, got)
		}
		ws.Ascending(tc.other)
		if got := ascendingPath(&ws, keys); got != tc.path {
			t.Fatalf("%s case takes the %s path back", tc.path, got)
		}
		ws.VecA(len(keys))
		ws.VecB(len(keys))
		allocs := testing.AllocsPerRun(100, func() {
			ws.Ascending(keys)
			ws.Ascending(tc.other)
			ws.VecA(len(keys))
			ws.VecB(len(keys))
		})
		if allocs != 0 {
			t.Fatalf("warm workspace allocated %v per run on the %s path, want 0", allocs, tc.path)
		}
	}
}

// stableArgsort is the reference argsort: a fresh sort.SliceStable of the
// identity permutation.
func stableArgsort(keys []float64) []int {
	want := make([]int, len(keys))
	for i := range want {
		want[i] = i
	}
	sort.SliceStable(want, func(a, b int) bool { return keys[want[a]] < keys[want[b]] })
	return want
}

// ascendingPath predicts which way ws.Ascending(keys) will go from the
// permutation ws holds: "length" (a length change), "nan", "budget" (the
// repair pass ran out of moves) or "repair".
func ascendingPath(ws *Workspace, keys []float64) string {
	if len(ws.sorter.idx) != len(keys) {
		return "length"
	}
	for _, k := range keys {
		if math.IsNaN(k) {
			return "nan"
		}
	}
	if !repair(keys, append([]int(nil), ws.sorter.idx...)) {
		return "budget"
	}
	return "repair"
}

// checkAscending feeds keys to ws and fails unless the result equals a
// fresh stable argsort; it returns the path the call took.
func checkAscending(t *testing.T, ws *Workspace, keys []float64) string {
	t.Helper()
	path := ascendingPath(ws, keys)
	got, want := ws.Ascending(keys), stableArgsort(keys)
	if len(got) != len(want) {
		t.Fatalf("%s path: keys %v: len %d, want %d", path, keys, len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("%s path: keys %v: got %v, want %v", path, keys, got, want)
		}
	}
	return path
}

// ascendingKey draws a key from a palette heavy in ties, signed zeros and
// +Inf, and NaN one draw in ten when nan is set.
func ascendingKey(rng *rand.Rand, nan bool) float64 {
	switch v := rng.Intn(10); {
	case v == 0:
		return math.Copysign(0, -1)
	case v == 1:
		return 0
	case v == 2:
		return math.Inf(1)
	case v == 3 && nan:
		return math.NaN()
	case v < 7:
		return float64(v) / 10
	default:
		return rng.Float64()
	}
}

// One workspace fed a run of key vectors — one-entry moves as in a
// Gauss–Seidel round, unrelated vectors of the same length, reversals,
// length changes, heavy ties, ±0, +Inf and NaN — must return a fresh
// stable argsort on every call, whatever it computed before; the run must
// reach every path, the budget fallback included.
func TestAscendingSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ws Workspace
	paths := map[string]int{}
	keys := make([]float64, 12)
	fresh := func(n int, nan bool) {
		keys = keys[:0]
		for range n {
			keys = append(keys, ascendingKey(rng, nan))
		}
	}
	for round := 0; round < 40; round++ {
		nan := round%4 == 3
		switch round % 5 {
		case 0: // a new length
			fresh(rng.Intn(24), nan)
		case 1: // an unrelated vector of the same length
			fresh(len(keys), nan)
		case 2: // reversed distinct keys
			for i := range keys {
				keys[i] = float64(len(keys) - i)
			}
			paths[checkAscending(t, &ws, keys)]++
			for i := range keys {
				keys[i] = float64(i)
			}
		case 3: // every key tied, up to sign
			for i := range keys {
				keys[i] = math.Copysign(0, float64(rng.Intn(2)*2-1))
			}
		}
		paths[checkAscending(t, &ws, keys)]++
		for move := 0; move < 20 && len(keys) > 0; move++ {
			keys[rng.Intn(len(keys))] = ascendingKey(rng, nan)
			paths[checkAscending(t, &ws, keys)]++
		}
	}
	for _, p := range []string{"length", "nan", "budget", "repair"} {
		if paths[p] == 0 {
			t.Errorf("the run never took the %s path (paths %v)", p, paths)
		}
	}
}

// FuzzAscendingSequence drives one workspace through a fuzzed run of key
// vectors and checks every call against a fresh stable argsort.  Each op
// byte picks a step: move one entry, swap two, reverse the vector, draw an
// unrelated vector of the same length, or draw one of a new length.
func FuzzAscendingSequence(f *testing.F) {
	f.Add(int64(1), []byte{2, 0, 0, 0, 3, 0, 4, 1, 0})
	f.Add(int64(2), []byte{12, 5, 3, 3, 0, 0, 0, 0, 1, 1})
	f.Add(int64(3), []byte{57, 0, 5, 10, 15, 20, 3, 2, 8})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 256 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		var ws Workspace
		var keys []float64
		for _, op := range ops {
			switch op % 5 {
			case 0:
				if len(keys) > 0 {
					keys[rng.Intn(len(keys))] = ascendingKey(rng, true)
				}
			case 1:
				if len(keys) > 1 {
					i, j := rng.Intn(len(keys)), rng.Intn(len(keys))
					keys[i], keys[j] = keys[j], keys[i]
				}
			case 2:
				for i, j := 0, len(keys)-1; i < j; i, j = i+1, j-1 {
					keys[i], keys[j] = keys[j], keys[i]
				}
			case 3:
				for i := range keys {
					keys[i] = ascendingKey(rng, op%2 == 0)
				}
			case 4:
				keys = keys[:0]
				for range int(op/5) % 40 {
					keys = append(keys, ascendingKey(rng, op%2 == 0))
				}
			}
			checkAscending(t, &ws, keys)
		}
	})
}
