//go:build amd64

// The six worked examples README points at, run as Example functions so
// `go test` checks every line they print.  The outputs are amd64
// arithmetic, like EXPERIMENTS.md's suite block: other architectures may
// fuse multiply-adds, so the file builds on amd64 only.

package greednet_test

import (
	"fmt"
	"math"
	"sort"

	"greednet"
)

// Quickstart: three selfish users share one switch.  We compute the Nash
// equilibrium that their self-optimization reaches under FIFO and under
// Fair Share, and show why the discipline choice matters: same users, same
// switch, very different outcomes.
func Example_quickstart() {
	// Three users with different congestion sensitivities: an aggressive
	// bulk mover, a balanced user, and a latency-conscious one.
	users := greednet.Profile{
		greednet.NewLinearUtility(1, 0.15), // aggressive
		greednet.NewLinearUtility(1, 0.30), // balanced
		greednet.NewLinearUtility(1, 0.45), // cautious
	}
	start := []float64{0.1, 0.1, 0.1}

	for _, disc := range []greednet.Allocation{
		greednet.NewProportional(), // what FIFO gives you
		greednet.NewFairShare(),    // what serial cost sharing gives you
	} {
		res, err := greednet.SolveNash(disc, users, start, greednet.NashOptions{})
		if err != nil {
			panic(err)
		}
		fmt.Printf("\n%s equilibrium (converged=%v in %d rounds):\n",
			disc.Name(), res.Converged, res.Iters)
		for i := range res.R {
			fmt.Printf("  user %d: rate %.4f  congestion %.4f  utility %+.4f\n",
				i, res.R[i], res.C[i], users[i].Value(res.R[i], res.C[i]))
		}
		p := greednet.Point{R: res.R, C: res.C}
		if amount, i, j := greednet.MaxEnvy(users, p); amount > 1e-9 {
			fmt.Printf("  fairness: user %d envies user %d by %.4f\n", i, j, amount)
		} else {
			fmt.Println("  fairness: envy-free")
		}
		resid := greednet.ParetoResidual(users, p)
		fmt.Printf("  Pareto FDC residual: %.3g %.3g %.3g\n", resid[0], resid[1], resid[2])
	}

	fmt.Println("\nLesson: under FIFO the cautious user is squeezed and envies the")
	fmt.Println("aggressive one; Fair Share yields an envy-free equilibrium where each")
	fmt.Println("user's congestion is insulated from bigger senders.")
	// Output:
	// proportional equilibrium (converged=true in 17 rounds):
	//   user 0: rate 0.5433  congestion 1.4677  utility +0.3231
	//   user 1: rate 0.0866  congestion 0.2339  utility +0.0164
	//   user 2: rate 0.0000  congestion 0.0000  utility -0.0000
	//   fairness: user 1 envies user 0 by 0.0866
	//   Pareto FDC residual: 0.632 3.97 5.08
	//
	// fair-share equilibrium (converged=true in 4 rounds):
	//   user 0: rate 0.3317  congestion 1.0873  utility +0.1686
	//   user 1: rate 0.1713  congestion 0.3311  utility +0.0719
	//   user 2: rate 0.1097  congestion 0.1636  utility +0.0361
	//   fairness: envy-free
	//   Pareto FDC residual: 1.1e-07 3.33 4.44
	//
	// Lesson: under FIFO the cautious user is squeezed and envies the
	// aggressive one; Fair Share yields an envy-free equilibrium where each
	// user's congestion is insulated from bigger senders.
}

// FTP vs Telnet (§5.2 of the paper): two greedy bulk transfers share a
// switch with two light interactive sessions.  The bulk flows self-
// optimize; the interactive flows just need their few packets through
// quickly.  We compute the selfish operating point analytically under FIFO
// and Fair Share, then replay it in the discrete-event simulator to
// measure actual packet delays.
func Example_ftptelnet() {
	// FTP-like users: throughput hungry, barely congestion sensitive.
	// Telnet-like users: fixed tiny rate (they do not optimize).
	users := greednet.Profile{
		greednet.NewLinearUtility(1, 0.06),
		greednet.NewLinearUtility(1, 0.10),
		greednet.NewLinearUtility(1, 0.50),
		greednet.NewLinearUtility(1, 0.50),
	}
	free := []bool{true, true, false, false}
	start := []float64{0.1, 0.1, 0.01, 0.01}

	type outcome struct {
		name        string
		rates       []float64
		telnetDelay float64
	}
	var outs []outcome
	for _, disc := range []greednet.Allocation{
		greednet.NewProportional(),
		greednet.NewFairShare(),
	} {
		res, err := greednet.SolveNash(disc, users, start, greednet.NashOptions{Free: free})
		if err != nil || !res.Converged {
			panic(fmt.Sprint("solve failed: ", err))
		}
		var sim greednet.Discipline
		if disc.Name() == "fair-share" {
			sim = &greednet.SimFairShare{}
		} else {
			sim = &greednet.SimFIFO{}
		}
		meas, err := greednet.Simulate(greednet.SimConfig{
			Rates:      res.R,
			Discipline: sim,
			Horizon:    2e5,
			Seed:       42,
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("\n%s selfish operating point:\n", disc.Name())
		labels := []string{"FTP-1 ", "FTP-2 ", "telnet", "telnet"}
		for i := range res.R {
			fmt.Printf("  %s rate %.4f  queue %.4f  measured delay %.3f\n",
				labels[i], res.R[i], res.C[i], meas.AvgDelay[i])
		}
		outs = append(outs, outcome{disc.Name(), res.R, meas.AvgDelay[2]})
	}

	fmt.Printf("\ninteractive delay: FIFO %.3f vs Fair Share %.3f (%.1f× better)\n",
		outs[0].telnetDelay, outs[1].telnetDelay, outs[0].telnetDelay/outs[1].telnetDelay)
	fmt.Println("Fair Queueing's §5.2 claims in action: fair bulk throughput, low")
	fmt.Println("interactive delay, and the light flows never pay for the FTP backlog.")
	// Output:
	// proportional selfish operating point:
	//   FTP-1  rate 0.5332  queue 2.5228  measured delay 4.698
	//   FTP-2  rate 0.2354  queue 1.1137  measured delay 4.729
	//   telnet rate 0.0100  queue 0.0473  measured delay 4.757
	//   telnet rate 0.0100  queue 0.0473  measured delay 4.925
	//
	// fair-share selfish operating point:
	//   FTP-1  rate 0.4032  queue 1.9909  measured delay 4.850
	//   FTP-2  rate 0.3319  queue 1.0707  measured delay 3.232
	//   telnet rate 0.0100  queue 0.0104  measured delay 1.091
	//   telnet rate 0.0100  queue 0.0104  measured delay 1.083
	//
	// interactive delay: FIFO 4.757 vs Fair Share 1.091 (4.4× better)
	// Fair Queueing's §5.2 claims in action: fair bulk throughput, low
	// interactive delay, and the light flows never pay for the FTP backlog.
}

// Cheater: a malicious flow floods a switch shared with naive, fixed-rate
// users.  Under FIFO the victims' queues blow up with the attacker's rate;
// under Fair Share they are capped at the Definition-7 protection bound
// r/(1−N·r) no matter how hard the attacker pushes — even past the
// server's capacity.
func Example_cheater() {
	const victims = 2
	victimRate := 0.1
	n := victims + 1 // two victims + the attacker
	bound := greednet.ProtectionBound(n, victimRate)
	fmt.Printf("victims send %.2f each; protection bound r/(1−Nr) = %.4f\n\n",
		victimRate, bound)

	fmt.Printf("%-10s %-12s %-14s %s\n", "attacker", "discipline", "victim queue", "within bound?")
	for _, atk := range []float64{0.2, 0.5, 0.7, 0.79, 1.5, 5.0} {
		rates := []float64{victimRate, victimRate, atk}
		for _, disc := range []greednet.Allocation{
			greednet.NewProportional(),
			greednet.NewFairShare(),
		} {
			// The attack deliberately pushes past server capacity (Σr > 1)
			// to show FIFO's blowup vs Fair Share's protection bound.
			c := disc.Congestion(rates)
			ok := c[0] <= bound+1e-9
			fmt.Printf("%-10.2f %-12s %-14.4g %v\n", atk, disc.Name(), c[0], ok)
		}
	}

	// Confirm the analytic story with the event-driven simulator at a
	// stable-but-hostile load.
	rates := []float64{victimRate, victimRate, 0.75}
	fmt.Printf("\nsimulated victim queues at attacker rate %.2f:\n", rates[2])
	discs := map[string]greednet.Discipline{
		"fifo":       &greednet.SimFIFO{},
		"fair-share": &greednet.SimFairShare{},
	}
	names := make([]string, 0, len(discs))
	for name := range discs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := discs[name]
		res, err := greednet.Simulate(greednet.SimConfig{
			Rates:      rates,
			Discipline: d,
			Horizon:    2e5,
			Seed:       7,
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("  %-11s victim queue %.4f (bound %.4f), victim delay %.3f\n",
			name, res.AvgQueue[0], bound, res.AvgDelay[0])
	}
	fmt.Println("\nFair Share's insulation: the victims' congestion depends only on")
	fmt.Println("senders no greedier than themselves — the attack hurts the attacker.")
	// Output:
	// victims send 0.10 each; protection bound r/(1−Nr) = 0.1429
	//
	// attacker   discipline   victim queue   within bound?
	// 0.20       proportional 0.1667         false
	// 0.20       fair-share   0.1429         true
	// 0.50       proportional 0.3333         false
	// 0.50       fair-share   0.1429         true
	// 0.70       proportional 1              false
	// 0.70       fair-share   0.1429         true
	// 0.79       proportional 10             false
	// 0.79       fair-share   0.1429         true
	// 1.50       proportional +Inf           false
	// 1.50       fair-share   0.1429         true
	// 5.00       proportional +Inf           false
	// 5.00       fair-share   0.1429         true
	//
	// simulated victim queues at attacker rate 0.75:
	//   fair-share  victim queue 0.1423 (bound 0.1429), victim delay 1.432
	//   fifo        victim queue 1.8807 (bound 0.1429), victim delay 18.936
	//
	// Fair Share's insulation: the victims' congestion depends only on
	// senders no greedier than themselves — the attack hurts the attacker.
}

// Learning: users know nothing about each other or the switch — they only
// observe their own payoffs and eliminate rate choices that prove
// dominated (the paper's "generalized hill climbing").  Under Fair Share
// every such learner is funneled to the unique Nash equilibrium; under
// FIFO elimination cannot even begin, because any candidate can be starved
// by the others' remaining candidates.
func Example_learning() {
	const n = 3
	gamma := 0.25
	users := greednet.IdenticalProfile(greednet.NewLinearUtility(1, gamma), n)
	nashRate := (1 - math.Sqrt(gamma)) / float64(n) // closed form for FS

	fmt.Printf("3 identical users, U = r − %.2f·c;  FS Nash rate = %.4f each\n\n", gamma, nashRate)

	for _, disc := range []greednet.Allocation{
		greednet.NewFairShare(),
		greednet.NewProportional(),
	} {
		res := greednet.GeneralizedHillClimb(disc, users,
			greednet.NewBox(n, 1e-6, 1-1e-6),
			greednet.EliminationOptions{Tol: 1e-3})
		fmt.Printf("%s: candidate interval for user 0 by elimination round:\n", disc.Name())
		width := 1.0
		fmt.Printf("  start: [0.000, 1.000] (width %.3f)\n", width)
		for i, w := range res.Widths {
			if i < 6 || i == len(res.Widths)-1 {
				fmt.Printf("  round %2d: width %.5f\n", i+1, w)
			} else if i == 6 {
				fmt.Println("  ...")
			}
		}
		mid := res.Final.Mid()
		fmt.Printf("  outcome: converged=%v stalled=%v, midpoint %.4f (Nash %.4f)\n\n",
			res.Converged, res.Stalled, mid[0], nashRate)
	}

	fmt.Println("Under Fair Share, ignorance is no obstacle: any reasonable learner")
	fmt.Println("ends at the equilibrium. Under FIFO the candidate set barely shrinks —")
	fmt.Println("no rate is safe while others might flood the switch.")
	// Output:
	// 3 identical users, U = r − 0.25·c;  FS Nash rate = 0.1667 each
	//
	// fair-share: candidate interval for user 0 by elimination round:
	//   start: [0.000, 1.000] (width 1.000)
	//   round  1: width 0.60937
	//   round  2: width 0.25708
	//   round  3: width 0.13256
	//   round  4: width 0.06214
	//   round  5: width 0.03204
	//   round  6: width 0.01802
	//   ...
	//   round 11: width 0.00068
	//   outcome: converged=true stalled=false, midpoint 0.1669 (Nash 0.1667)
	//
	// proportional: candidate interval for user 0 by elimination round:
	//   start: [0.000, 1.000] (width 1.000)
	//   round  1: width 1.00000
	//   outcome: converged=false stalled=true, midpoint 0.5000 (Nash 0.1667)
	//
	// Under Fair Share, ignorance is no obstacle: any reasonable learner
	// ends at the equilibrium. Under FIFO the candidate set barely shrinks —
	// no rate is safe while others might flood the switch.
}

// M/G/1 generalization (footnote 5 of the paper): the serial (Fair Share)
// allocation and its guarantees do not depend on exponential service —
// only on the station's total-congestion curve being increasing and
// convex.  This example runs the same selfish users over M/D/1
// (deterministic service) and a bursty M/G/1 (cv² = 2), and also shows the
// one thing that does NOT generalize: the Table-1 priority construction
// realizes the serial ideal exactly only for exponential service.
func Example_mg1() {
	users := greednet.Profile{
		greednet.NewLinearUtility(1, 0.15),
		greednet.NewLinearUtility(1, 0.30),
		greednet.NewLinearUtility(1, 0.45),
	}
	start := []float64{0.1, 0.1, 0.1}

	for _, cv2 := range []float64{0, 1, 2} {
		model := greednet.MG1Model{CV2: cv2}
		serial := greednet.SerialAllocation{Model: model}
		res, err := greednet.SolveNash(serial, users, start, greednet.NashOptions{})
		if err != nil || !res.Converged {
			panic("solve failed")
		}
		if !greednet.Feasible(res.R) {
			panic("equilibrium left the feasible region")
		}
		p := greednet.Point{R: res.R, C: res.C}
		envy, _, _ := greednet.MaxEnvy(users, p)
		fmt.Printf("\n%s equilibrium:\n", serial.Name())
		for i := range res.R {
			fmt.Printf("  user %d: rate %.4f  queue %.4f\n", i, res.R[i], res.C[i])
		}
		fmt.Printf("  envy at equilibrium: %.2g (envy-free for every service law)\n", envy)

		// Realization drift: the Table-1 priority construction vs the ideal.
		table := greednet.TablePriorityAllocation{Model: model}
		ideal := serial.Congestion(res.R)
		real := table.Congestion(res.R)
		worst := 0.0
		for i := range ideal {
			d := (real[i] - ideal[i]) / ideal[i]
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
		fmt.Printf("  Table-1 realization drift from serial ideal: %.2f%%\n", 100*worst)
	}

	// Confirm with the general-service simulator at cv² = 2.
	fmt.Println("\ngeneral-service simulation check (cv² = 2, Table-1 splitter):")
	rates := []float64{0.1, 0.2, 0.3}
	sim, err := greednet.SimulateG(greednet.GSimConfig{
		Rates:    rates,
		Service:  greednet.ServiceFromCV2(2),
		Classify: &greednet.SerialClassifier{},
		Horizon:  2e5,
		Seed:     5,
	})
	if err != nil {
		panic(err)
	}
	exact := greednet.TablePriorityAllocation{Model: greednet.MG1Model{CV2: 2}}.Congestion(rates)
	for i := range rates {
		fmt.Printf("  user %d: measured %.4f  exact priority formula %.4f\n",
			i, sim.AvgQueue[i], exact[i])
	}
	fmt.Println("\nThe guarantees travel with the constraint's convexity; the specific")
	fmt.Println("queueing realization is an exponential-service artifact.")
	// Output:
	// serial-mg1(cv2=0) equilibrium:
	//   user 0: rate 0.3484  queue 1.0137
	//   user 1: rate 0.2131  queue 0.3803
	//   user 2: rate 0.1537  queue 0.2195
	//   envy at equilibrium: 0 (envy-free for every service law)
	//   Table-1 realization drift from serial ideal: 11.72%
	//
	// serial-mg1(cv2=1) equilibrium:
	//   user 0: rate 0.3317  queue 1.0873
	//   user 1: rate 0.1713  queue 0.3311
	//   user 2: rate 0.1097  queue 0.1636
	//   envy at equilibrium: 0 (envy-free for every service law)
	//   Table-1 realization drift from serial ideal: 0.00%
	//
	// serial-mg1(cv2=2) equilibrium:
	//   user 0: rate 0.3123  queue 1.0868
	//   user 1: rate 0.1443  queue 0.2900
	//   user 2: rate 0.0859  queue 0.1306
	//   envy at equilibrium: 0 (envy-free for every service law)
	//   Table-1 realization drift from serial ideal: 5.56%
	//
	// general-service simulation check (cv² = 2, Table-1 splitter):
	//   user 0: measured 0.1647  exact priority formula 0.1643
	//   user 1: measured 0.5116  exact priority formula 0.5214
	//   user 2: measured 1.1481  exact priority formula 1.1714
	//
	// The guarantees travel with the constraint's convexity; the specific
	// queueing realization is an exponential-service artifact.
}

// Revelation (Theorem 6): instead of hill climbing, users may simply tell
// the switch their utility function, and the switch allocates at the Nash
// equilibrium of the reported profile.  Built on Fair Share (the B^FS
// mechanism) this is truthful — no lie helps.  Built on FIFO it is a
// manipulation playground: exaggerating your appetite acts like a
// Stackelberg commitment and pays.
func Example_revelation() {
	truth := greednet.NewLinearUtility(1, 0.3) // our user's real preferences
	others := greednet.Profile{
		nil, // slot 0 belongs to our user
		greednet.NewLinearUtility(1, 0.25),
		greednet.NewLinearUtility(1, 0.4),
	}
	// Candidate misreports: pretend to be more/less congestion averse.
	lies := []struct {
		label string
		u     greednet.Utility
	}{
		{"claim γ=0.05 (very greedy)", greednet.NewLinearUtility(1, 0.05)},
		{"claim γ=0.15", greednet.NewLinearUtility(1, 0.15)},
		{"truth   γ=0.30", truth},
		{"claim γ=0.60 (meek)", greednet.NewLinearUtility(1, 0.6)},
	}

	for _, disc := range []greednet.Allocation{
		greednet.NewFairShare(),
		greednet.NewProportional(),
	} {
		m := greednet.Mechanism{Alloc: disc}
		fmt.Printf("\nmechanism on %s:\n", disc.Name())
		// Truthful baseline first: the yardstick every lie is judged by.
		baseReports := make(greednet.Profile, len(others))
		copy(baseReports, others)
		baseReports[0] = truth
		base, err := m.Allocate(baseReports)
		if err != nil {
			panic(err)
		}
		truthU := truth.Value(base.R[0], base.C[0])
		for _, lie := range lies {
			reports := make(greednet.Profile, len(others))
			copy(reports, others)
			reports[0] = lie.u
			p, err := m.Allocate(reports)
			if err != nil {
				fmt.Printf("  %-28s (no stable outcome)\n", lie.label)
				continue
			}
			// Judge the outcome with the TRUE utility.
			v := truth.Value(p.R[0], p.C[0])
			mark := ""
			switch {
			case lie.u == greednet.Utility(truth):
				mark = "  ← truthful baseline"
			case v > truthU+1e-9:
				mark = "  ← LIE PAYS"
			}
			fmt.Printf("  %-28s rate %.4f  queue %.4f  true utility %+.5f%s\n",
				lie.label, p.R[0], p.C[0], v, mark)
		}
	}
	fmt.Println("\nUnder B^FS the truthful report maximizes your true utility (Theorem 6);")
	fmt.Println("under the FIFO mechanism, overstating greed is rewarded.")
	// Output:
	// mechanism on fair-share:
	//   claim γ=0.05 (very greedy)   rate 0.4651  queue 2.8753  true utility -0.39745
	//   claim γ=0.15                 rate 0.3014  queue 0.9851  true utility +0.00590
	//   truth   γ=0.30               rate 0.1649  queue 0.3160  true utility +0.07008  ← truthful baseline
	//   claim γ=0.60 (meek)          rate 0.0751  queue 0.0970  true utility +0.04603
	//
	// mechanism on proportional:
	//   claim γ=0.05 (very greedy)   rate 0.7764  queue 3.4721  true utility -0.26525
	//   claim γ=0.15                 rate 0.4913  queue 1.3775  true utility +0.07801  ← LIE PAYS
	//   truth   γ=0.30               rate 0.1984  queue 0.4547  true utility +0.06203  ← truthful baseline
	//   claim γ=0.60 (meek)          rate 0.0000  queue 0.0000  true utility +0.00000
	//
	// Under B^FS the truthful report maximizes your true utility (Theorem 6);
	// under the FIFO mechanism, overstating greed is rewarded.
}
