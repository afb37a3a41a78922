// Package cliutil holds the flag-parsing helpers shared by the greednet
// command-line tools: rate lists, utility specs, allocation names, and
// simulator discipline names.
package cliutil

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"greednet/internal/alloc"
	"greednet/internal/core"
	"greednet/internal/des"
	"greednet/internal/utility"
)

// CheckRate validates a single rate value: positive and finite (NaN and
// ±Inf rejected).  It is the one rate-validation rule shared by the CLI
// flag parsers and the greedd service boundary, so a rate that would
// poison a solver is rejected identically everywhere it can enter.
func CheckRate(v float64) error {
	if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("cliutil: rate %v must be positive and finite", v)
	}
	return nil
}

// ParseRates parses a comma-separated list of positive rates, e.g.
// "0.1,0.2,0.15".
func ParseRates(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("cliutil: bad rate %q: %w", p, err)
		}
		if err := CheckRate(v); err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cliutil: empty rate list %q", s)
	}
	return out, nil
}

// ParseUtility parses one utility spec of the form family:params, with
// families
//
//	linear:A,GAMMA     U = A·r − GAMMA·c
//	log:W,GAMMA        U = W·log r − GAMMA·c
//	sqrt:W,GAMMA       U = W·√r − GAMMA·c
//	power:A,GAMMA,P    U = A·r − GAMMA·c^P
//	delay:A,GAMMA      U = A·r − GAMMA·(c/r)
//
// Every parameter must be positive and finite, and P at least 1: only
// then is the utility in the paper's class AU, increasing in r and
// decreasing in c.  It is the one utility boundary the greedd service
// and the command line share.
func ParseUtility(s string) (core.Utility, error) {
	name, argstr, found := strings.Cut(s, ":")
	if !found {
		return nil, fmt.Errorf("cliutil: utility spec %q needs family:params", s)
	}
	var args []float64
	for _, p := range strings.Split(argstr, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("cliutil: bad utility parameter %q: %w", p, err)
		}
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("cliutil: utility %q: parameter %v must be positive and finite", s, v)
		}
		args = append(args, v)
	}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("cliutil: %s needs %d parameters, got %d", name, n, len(args))
		}
		return nil
	}
	switch strings.ToLower(name) {
	case "linear":
		if err := need(2); err != nil {
			return nil, err
		}
		return utility.Linear{A: args[0], Gamma: args[1]}, nil
	case "log":
		if err := need(2); err != nil {
			return nil, err
		}
		return utility.Log{W: args[0], Gamma: args[1]}, nil
	case "sqrt":
		if err := need(2); err != nil {
			return nil, err
		}
		return utility.Sqrt{W: args[0], Gamma: args[1]}, nil
	case "power":
		if err := need(3); err != nil {
			return nil, err
		}
		if args[2] < 1 {
			return nil, fmt.Errorf("cliutil: utility %q: exponent %v must be at least 1", s, args[2])
		}
		return utility.Power{A: args[0], Gamma: args[1], P: args[2]}, nil
	case "delay":
		if err := need(2); err != nil {
			return nil, err
		}
		return utility.DelaySensitive{A: args[0], Gamma: args[1]}, nil
	default:
		return nil, fmt.Errorf("cliutil: unknown utility family %q", name)
	}
}

// ParseProfile parses a semicolon-separated list of utility specs.
func ParseProfile(s string) (core.Profile, error) {
	var out core.Profile
	for _, spec := range strings.Split(s, ";") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		u, err := ParseUtility(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, u)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cliutil: empty profile %q", s)
	}
	return out, nil
}

// ParseAlloc resolves an allocation-function name:
// fair-share | proportional | hol-smallest | hol-largest | blend:THETA.
func ParseAlloc(s string) (core.Allocation, error) {
	name, arg, _ := strings.Cut(strings.ToLower(strings.TrimSpace(s)), ":")
	switch name {
	case "fair-share", "fairshare", "fs":
		return alloc.FairShare{}, nil
	case "proportional", "fifo":
		return alloc.Proportional{}, nil
	case "hol-smallest", "hol":
		return alloc.HOLPriority{Order: alloc.SmallestFirst}, nil
	case "hol-largest":
		return alloc.HOLPriority{Order: alloc.LargestFirst}, nil
	case "blend":
		th, err := strconv.ParseFloat(arg, 64)
		if err != nil || th < 0 || th > 1 {
			return nil, fmt.Errorf("cliutil: blend needs θ in [0,1], got %q", arg)
		}
		return alloc.Blend{Theta: th}, nil
	default:
		return nil, fmt.Errorf("cliutil: unknown allocation %q", s)
	}
}

// ParseDiscipline resolves a simulator discipline name:
// fifo | lifo | ps | holps | fairshare | ratepriority.
func ParseDiscipline(s string) (des.Discipline, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "fifo":
		return &des.FIFO{}, nil
	case "lifo":
		return &des.LIFOPreemptive{}, nil
	case "ps":
		return &des.ProcessorSharing{}, nil
	case "holps", "fq":
		return &des.HOLProcessorSharing{}, nil
	case "fairshare", "fair-share", "fs":
		return &des.FairShareSplitter{}, nil
	case "ratepriority", "priority":
		return &des.RatePriority{}, nil
	default:
		return nil, fmt.Errorf("cliutil: unknown discipline %q", s)
	}
}
