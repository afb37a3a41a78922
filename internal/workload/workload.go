// Package workload builds the user populations the experiments and tools
// run against: the paper's motivating scenarios (bulk-vs-interactive
// traffic, a flooding attacker among naive users, homogeneous commons) and
// seeded random populations drawn from the admissible utility families.
package workload

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"greednet/internal/core"
	"greednet/internal/randdist"
	"greednet/internal/utility"
)

// Scenario is a ready-to-solve user population.
type Scenario struct {
	// Name identifies the scenario.
	Name string
	// Users holds one utility per user.
	Users core.Profile
	// Start is a reasonable starting rate vector.
	Start []float64
	// Free marks which users self-optimize; nil means all.
	Free []bool
	// Labels describes each user for display.
	Labels []string
}

// Symmetric builds n identical linear users U = r − γc — the homogeneous
// commons of §4.2.3.
func Symmetric(n int, gamma float64) Scenario {
	s := Scenario{
		Name:   fmt.Sprintf("symmetric(n=%d, γ=%g)", n, gamma),
		Users:  utility.Identical(utility.NewLinear(1, gamma), n),
		Start:  make([]float64, n),
		Labels: make([]string, n),
	}
	for i := range s.Start {
		s.Start[i] = 0.5 / float64(n)
		s.Labels[i] = fmt.Sprintf("user-%d", i)
	}
	return s
}

// FTPTelnet builds the §5.2 mix: two greedy bulk flows and two fixed light
// interactive flows.
func FTPTelnet() Scenario {
	return Scenario{
		Name: "ftp-telnet",
		Users: core.Profile{
			utility.NewLinear(1, 0.06),
			utility.NewLinear(1, 0.10),
			utility.NewLinear(1, 0.50),
			utility.NewLinear(1, 0.50),
		},
		Start:  []float64{0.1, 0.1, 0.01, 0.01},
		Free:   []bool{true, true, false, false},
		Labels: []string{"ftp-1", "ftp-2", "telnet-1", "telnet-2"},
	}
}

// Cheater builds the protection scenario: naive fixed-rate victims facing
// one greedy optimizer with near-zero congestion aversion.
func Cheater(victims int, victimRate float64) Scenario {
	n := victims + 1
	s := Scenario{
		Name:   fmt.Sprintf("cheater(victims=%d)", victims),
		Users:  make(core.Profile, n),
		Start:  make([]float64, n),
		Free:   make([]bool, n),
		Labels: make([]string, n),
	}
	for i := 0; i < victims; i++ {
		s.Users[i] = utility.NewLinear(1, 0.5)
		s.Start[i] = victimRate
		s.Labels[i] = fmt.Sprintf("victim-%d", i)
	}
	s.Users[victims] = utility.NewLinear(1, 0.02)
	s.Start[victims] = 0.3
	s.Free[victims] = true
	s.Labels[victims] = "attacker"
	return s
}

// Mixed builds a heterogeneous population across the utility families.
func Mixed() Scenario {
	return Scenario{
		Name: "mixed",
		Users: core.Profile{
			utility.NewLinear(1, 0.2),
			utility.Log{W: 0.3, Gamma: 1},
			utility.Sqrt{W: 1, Gamma: 2},
			utility.Power{A: 1, Gamma: 0.8, P: 1.4},
		},
		Start:  []float64{0.1, 0.1, 0.1, 0.1},
		Labels: []string{"linear", "log", "sqrt", "power"},
	}
}

// Random draws a seeded random population of n users.
func Random(n int, seed int64) Scenario {
	rng := randdist.NewRand(seed)
	s := Scenario{
		Name:   fmt.Sprintf("random(n=%d, seed=%d)", n, seed),
		Users:  utility.RandomProfile(rng, n),
		Start:  make([]float64, n),
		Labels: make([]string, n),
	}
	for i := range s.Start {
		s.Start[i] = 0.02 + 0.3*rng.Float64()/float64(n)
		s.Labels[i] = fmt.Sprintf("%v", s.Users[i])
	}
	return s
}

// maxUsers bounds a parsed scenario's population: the per-user solvers
// are for small games, and a bound keeps a typo such as
// symmetric:10000000000000,0.2 from asking for memory no host has.
const maxUsers = 1 << 20

// Parse resolves a scenario spec:
//
//	symmetric:N,GAMMA | ftptelnet | cheater:VICTIMS,RATE | mixed | random:N,SEED
//
// N and VICTIMS must be whole numbers from 1 to 2^20, SEED a whole
// number, and GAMMA and RATE positive and finite.
func Parse(spec string) (Scenario, error) {
	name, argstr, _ := strings.Cut(strings.TrimSpace(spec), ":")
	args := strings.Split(argstr, ",")
	var err error // the first bad argument's
	arg := func(k int) string {
		if k < len(args) {
			return strings.TrimSpace(args[k])
		}
		if err == nil {
			err = fmt.Errorf("workload: %s needs %d args", name, k+1)
		}
		return ""
	}
	whole := func(k int, lo, hi int64) int64 {
		v, perr := strconv.ParseInt(arg(k), 10, 64)
		if (perr != nil || v < lo || v > hi) && err == nil {
			err = fmt.Errorf("workload: %s argument %d is %q, want a whole number in [%d, %d]", name, k+1, arg(k), lo, hi)
		}
		return v
	}
	positive := func(k int) float64 {
		v, perr := strconv.ParseFloat(arg(k), 64)
		if (perr != nil || !(v > 0) || math.IsInf(v, 1)) && err == nil {
			err = fmt.Errorf("workload: %s argument %d is %q, want a positive finite number", name, k+1, arg(k))
		}
		return v
	}
	switch strings.ToLower(name) {
	case "symmetric":
		n, g := whole(0, 1, maxUsers), positive(1)
		if err == nil {
			return Symmetric(int(n), g), nil
		}
	case "ftptelnet":
		return FTPTelnet(), nil
	case "cheater":
		v, r := whole(0, 1, maxUsers), positive(1)
		if err == nil {
			return Cheater(int(v), r), nil
		}
	case "mixed":
		return Mixed(), nil
	case "random":
		n, seed := whole(0, 1, maxUsers), whole(1, math.MinInt64, math.MaxInt64)
		if err == nil {
			return Random(int(n), seed), nil
		}
	default:
		err = fmt.Errorf("workload: unknown scenario %q", name)
	}
	return Scenario{}, err
}
