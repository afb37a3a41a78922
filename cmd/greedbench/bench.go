package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
)

// The -bench registry.  Each layer declares its rows — case × metric ×
// optional ceiling or floor — as data, then measures them.  One writer
// emits every BENCH_<layer>.json in one schema, one pure gate checks
// every row against its budget, and one guard keeps a one-core run from
// replacing the multi-core artifact of a layer whose numbers depend on
// the core count.

// Row is one measurement: a case, a metric, the measured value and,
// when the row is gated, a ceiling (Max) or a floor (Min).
type Row struct {
	Case   string   `json:"case"`
	Metric string   `json:"metric"`
	Value  float64  `json:"value"`
	Max    *float64 `json:"max,omitempty"`
	Min    *float64 `json:"min,omitempty"`
	// MultiCore applies the budget only on a host with more than one
	// core: on one core a parallel speedup measures scheduling overhead,
	// not scaling.
	MultiCore bool `json:"multicore,omitempty"`
}

// Host records where an artifact was measured.
type Host struct {
	Cores  int    `json:"cores"`
	GOARCH string `json:"goarch"`
	Go     string `json:"go"`
}

// Artifact is the BENCH_<layer>.json schema, shared by every layer.
type Artifact struct {
	Layer string `json:"layer"`
	Host  Host   `json:"host"`
	Rows  []Row  `json:"rows"`
}

func row(c, metric string) Row { return Row{Case: c, Metric: metric} }

func atMost(c, metric string, max float64) Row {
	return Row{Case: c, Metric: metric, Max: &max}
}

func atLeast(c, metric string, min float64) Row {
	return Row{Case: c, Metric: metric, Min: &min}
}

// values collects a layer's measurements by (case, metric).
type values map[[2]string]float64

func (v values) set(c, metric string, x float64) { v[[2]string{c, metric}] = x }

// layer is one registry entry.
type layer struct {
	name string
	// coreBound marks the layers whose numbers depend on the core count;
	// the guard protects their multi-core artifacts.
	coreBound bool
	// rows declares the layer's rows with their budgets, values zero.
	rows func() []Row
	// measure sets a value for every declared row.
	measure func(v values) error
}

// layers is the registry, in `-bench all` order.
var layers = []layer{
	{name: "hotpath", rows: hotpathRows, measure: measureHotpath},
	{name: "classes", rows: classRows, measure: measureClasses},
	{name: "events", coreBound: true, rows: eventRows, measure: measureEvents},
	{name: "service", coreBound: true, rows: serviceRows, measure: measureService},
	{name: "parallel", coreBound: true, rows: parallelRows, measure: measureParallel},
}

// selectLayers resolves -bench's argument: "all" or a comma list of
// layer names.
func selectLayers(spec string) ([]layer, error) {
	if spec == "all" {
		return layers, nil
	}
	var sel []layer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		i := slices.IndexFunc(layers, func(l layer) bool { return l.name == name })
		if i < 0 {
			return nil, fmt.Errorf("unknown bench layer %q (all, hotpath, classes, events, service, parallel)", name)
		}
		sel = append(sel, layers[i])
	}
	return sel, nil
}

// measureLayer runs one layer and fills its declared rows.  A row left
// unmeasured, or a measurement no row declares, is a harness error.
func measureLayer(l layer, host Host) (Artifact, error) {
	v := make(values)
	if err := l.measure(v); err != nil {
		return Artifact{}, fmt.Errorf("%s: %w", l.name, err)
	}
	a := Artifact{Layer: l.name, Host: host, Rows: l.rows()}
	for i, r := range a.Rows {
		x, ok := v[[2]string{r.Case, r.Metric}]
		if !ok {
			return Artifact{}, fmt.Errorf("%s: row %s/%s not measured", l.name, r.Case, r.Metric)
		}
		a.Rows[i].Value = x
	}
	if len(v) != len(a.Rows) {
		return Artifact{}, fmt.Errorf("%s: %d measurements match no declared row", l.name, len(v)-len(a.Rows))
	}
	return a, nil
}

// gate returns one message per row outside its budget, each naming the
// layer, case and metric; empty when the artifact passes.  Pure.
func gate(a Artifact) []string {
	var fails []string
	for _, r := range a.Rows {
		if r.MultiCore && a.Host.Cores < 2 {
			continue
		}
		id := a.Layer + "/" + r.Case + "/" + r.Metric
		if r.Max != nil && !(r.Value <= *r.Max) {
			fails = append(fails, fmt.Sprintf("%s: %.6g over ceiling %g", id, r.Value, *r.Max))
		}
		if r.Min != nil && !(r.Value >= *r.Min) {
			fails = append(fails, fmt.Sprintf("%s: %.6g under floor %g", id, r.Value, *r.Min))
		}
	}
	return fails
}

// readArtifact decodes path under the schema, rejecting unknown fields.
func readArtifact(path string) (Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return Artifact{}, err
	}
	defer func() { _ = f.Close() }()
	var a Artifact
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	return a, dec.Decode(&a)
}

// guard refuses to let a one-core run replace the multi-core artifact of
// a core-bound layer; force overrides.  A missing or unreadable artifact
// has nothing to protect.
func guard(path string, l layer, cores int, force bool) error {
	if !l.coreBound || cores > 1 || force {
		return nil
	}
	prev, err := readArtifact(path)
	if err != nil || prev.Host.Cores < 2 {
		return nil
	}
	return fmt.Errorf("refusing to overwrite %s: it was measured on %d cores and this run has one; rerun with -force to replace it",
		path, prev.Host.Cores)
}

func writeArtifact(path string, a Artifact) error {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runBench measures the layers spec names, writes BENCH_<layer>.json
// for each, prints every row, and returns exit code 1 when a row misses
// its budget.  Every layer is guarded before any is measured.
func runBench(spec string, force bool) (int, error) {
	sel, err := selectLayers(spec)
	if err != nil {
		return 0, err
	}
	host := Host{Cores: runtime.GOMAXPROCS(0), GOARCH: runtime.GOARCH, Go: runtime.Version()}
	for _, l := range sel {
		if err := guard("BENCH_"+l.name+".json", l, host.Cores, force); err != nil {
			return 0, err
		}
	}
	code := 0
	for _, l := range sel {
		path := "BENCH_" + l.name + ".json"
		a, err := measureLayer(l, host)
		if err != nil {
			return 0, err
		}
		if err := writeArtifact(path, a); err != nil {
			return 0, err
		}
		for _, r := range a.Rows {
			line := fmt.Sprintf("%-8s %-34s %-24s %14.6g", l.name, r.Case, r.Metric, r.Value)
			switch {
			case r.Max != nil:
				line += fmt.Sprintf("  max %g", *r.Max)
			case r.Min != nil:
				line += fmt.Sprintf("  min %g", *r.Min)
			}
			fmt.Println(line)
		}
		fmt.Printf("%s: %d rows on %d cores -> %s\n", l.name, len(a.Rows), host.Cores, path)
		for _, msg := range gate(a) {
			fmt.Printf("  REGRESSION(%s)\n", msg)
			code = 1
		}
	}
	return code, nil
}
