// Package network implements the §5.4 generalization: users route Poisson
// streams across several switches, each running its own service
// discipline, and care about their summed congestion c_i = Σ_α c_i^α.
// Following the paper, each switch is analyzed with the Poisson
// approximation (the output of a switch is treated as Poisson with the
// input rate), so every switch crossed by a set of users is an independent
// single-switch model at those users' rates.
//
// A Network implements core.Allocation over the users' rate vector, which
// lets the entire game-theoretic toolkit (Nash solvers, envy, protection,
// Stackelberg) run unchanged on multi-switch topologies.  Note that a
// network allocation is not symmetric across users — routes differ — so
// the single-switch uniqueness/fairness theorems do not transfer verbatim;
// the paper notes that fairness in particular needs a new definition.
package network

import (
	"errors"
	"fmt"
	"math"

	"greednet/internal/core"
	"greednet/internal/mm1"
)

// Network is a fixed topology: each user's stream crosses the switches on
// its route, every switch running the same allocation discipline.
type Network struct {
	// Switches is the number of switches.
	Switches int
	// Routes[i] lists the switch indices user i's stream crosses.
	Routes [][]int
	// Disc is the per-switch allocation function (e.g. alloc.FairShare{}).
	Disc core.Allocation

	// usersAt[α] caches the users crossing switch α.
	usersAt [][]int
}

// New validates the topology and builds the switch occupancy cache.
func New(switches int, routes [][]int, disc core.Allocation) (*Network, error) {
	if switches <= 0 {
		return nil, errors.New("network: need at least one switch")
	}
	if disc == nil {
		return nil, errors.New("network: nil discipline")
	}
	nw := &Network{Switches: switches, Routes: routes, Disc: disc}
	nw.usersAt = make([][]int, switches)
	for i, route := range routes {
		if len(route) == 0 {
			return nil, fmt.Errorf("network: user %d has an empty route", i)
		}
		seen := make(map[int]bool, len(route))
		for _, a := range route {
			if a < 0 || a >= switches {
				return nil, fmt.Errorf("network: user %d routes through invalid switch %d", i, a)
			}
			if seen[a] {
				return nil, fmt.Errorf("network: user %d visits switch %d twice", i, a)
			}
			seen[a] = true
			nw.usersAt[a] = append(nw.usersAt[a], i)
		}
	}
	return nw, nil
}

// Name implements core.Allocation.
func (nw *Network) Name() string {
	return "network(" + nw.Disc.Name() + ")"
}

// switchCongestion returns the per-user congestion vector of switch α
// (indexed like usersAt[α]) for global rates r.
func (nw *Network) switchCongestion(a int, r []core.Rate) []core.Congestion {
	users := nw.usersAt[a]
	local := make([]core.Rate, len(users))
	for k, u := range users {
		local[k] = r[u]
	}
	return nw.Disc.Congestion(local) //lint:allow feasguard per-switch half of the Network Allocation contract, defined (with +Inf) on all of R+^n
}

// Congestion implements core.Allocation: summed per-route congestion.
func (nw *Network) Congestion(r []core.Rate) []core.Congestion {
	out := make([]core.Congestion, len(r))
	for a := 0; a < nw.Switches; a++ {
		if len(nw.usersAt[a]) == 0 {
			continue
		}
		c := nw.switchCongestion(a, r)
		for k, u := range nw.usersAt[a] {
			out[u] += c[k]
		}
	}
	return out
}

// CongestionOf implements core.Allocation.
func (nw *Network) CongestionOf(r []core.Rate, i int) core.Congestion {
	var total core.Congestion
	for _, a := range nw.Routes[i] {
		users := nw.usersAt[a]
		local := make([]core.Rate, len(users))
		pos := -1
		for k, u := range users {
			local[k] = r[u]
			if u == i {
				pos = k
			}
		}
		total += nw.Disc.CongestionOf(local, pos)
		if math.IsInf(total, 1) {
			return total
		}
	}
	return total
}

// ProtectionBound is the network analogue of the single-switch guarantee:
// on each switch α crossed by user i, Fair Share caps the congestion at
// r_i/(1 − n_α·r_i) with n_α the number of users at that switch; the
// route-level bound is the sum.
func (nw *Network) ProtectionBound(i int, ri core.Rate) core.Congestion {
	var total core.Congestion
	for _, a := range nw.Routes[i] {
		total += mm1.ProtectionBound(len(nw.usersAt[a]), ri) //lint:allow feasguard bound formula reported for any rate; +Inf past 1/n_alpha is the honest value
	}
	return total
}

// Line builds the classic line topology with k switches: one "long" user
// (index 0) crossing every switch, plus one "cross" user per switch
// crossing only it.  Total users = k + 1.
func Line(k int, disc core.Allocation) (*Network, error) {
	routes := make([][]int, k+1)
	long := make([]int, k)
	for a := 0; a < k; a++ {
		long[a] = a
		routes[a+1] = []int{a}
	}
	routes[0] = long
	return New(k, routes, disc)
}
