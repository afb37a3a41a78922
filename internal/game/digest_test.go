package game

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"greednet/internal/alloc"
	"greednet/internal/core"
)

// solverDigest is the SHA-256 of every result in the TestSolverDigest
// matrix.  An intended numeric change to the solvers updates it in the
// same commit, with the reason in the commit message; any other change
// that moves it has changed an answer.
const solverDigest = "4808a6cca0e35e3df233bab8b928b888ea0fdb5f5e0f845c25a460b1dd078a7e"

// appendResult appends one solve's outcome to buf: R, C and MaxGain as
// Float64bits, Iters as a uint64, all little-endian.
func appendResult(buf []byte, res NashResult) []byte {
	for _, v := range res.R {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	for _, v := range res.C {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(res.Iters))
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(res.MaxGain))
}

// digestClassGame is a K-class game over the four service specs: class
// j takes spec j mod 4, a multiplicity in [1, 8] and a starting rate in
// [0.2, 0.95)/N, so the classes carry ties of spec but never of start.
func digestClassGame(k int, seed int64) (ClassGame, error) {
	us, _, _ := pollProfile(4, 0)
	rng := rand.New(rand.NewSource(seed))
	classes := make([]Class, k)
	n := 0
	for j := range classes {
		classes[j] = Class{U: us[j%4], Count: 1 + rng.Intn(8)}
		n += classes[j].Count
	}
	for j := range classes {
		classes[j].Rate = (0.2 + 0.75*rng.Float64()) / float64(n)
	}
	return NewClassGame(classes)
}

// TestSolverDigest pins the solvers' answers bit for bit: per-user solves
// under Fair Share and Proportional, Gauss–Seidel and Jacobi, at N = 8,
// 32 and 128 over the service benchmarks' four specs and several seeds,
// plus Fair Share class solves of K = 8 and K = 64 games, all hashed
// into one SHA-256.  It runs on amd64 only: other architectures may fuse
// multiply-adds and legitimately round differently.
func TestSolverDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the pinned digest is amd64 arithmetic; " + runtime.GOARCH + " may fuse multiply-adds")
	}
	ctx := context.Background()
	ws := NewWorkspace()
	var buf []byte
	schemes := []UpdateScheme{GaussSeidel, Jacobi}
	for _, a := range []core.Allocation{alloc.FairShare{}, alloc.Proportional{}} {
		for _, scheme := range schemes {
			for _, n := range []int{8, 32, 128} {
				for seed := int64(1); seed <= 3; seed++ {
					us, r0, _ := pollProfile(n, seed)
					opt := NashOptions{Scheme: scheme, MaxIter: 40, Tol: 1e-6}
					res, err := SolveNashWS(ctx, ws, a, us, r0, opt)
					if err != nil {
						t.Fatal(err)
					}
					buf = appendResult(buf, res)
				}
			}
		}
	}
	for _, scheme := range schemes {
		for _, k := range []int{8, 64} {
			for seed := int64(1); seed <= 3; seed++ {
				cg, err := digestClassGame(k, seed)
				if err != nil {
					t.Fatal(err)
				}
				opt := NashOptions{Scheme: scheme, MaxIter: 200, Tol: 1e-6}
				res, err := SolveNashClassWS(ctx, ws, alloc.FairShare{}, cg, nil, opt)
				if err != nil {
					t.Fatal(err)
				}
				buf = appendResult(buf, res)
			}
		}
	}
	sum := sha256.Sum256(buf)
	if got := hex.EncodeToString(sum[:]); got != solverDigest {
		t.Errorf("solver digest = %s, want %s", got, solverDigest)
	}
}
