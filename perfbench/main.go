// Command perfbench is greednet's end-to-end benchmark.  One invocation
// runs one workload for a fixed time, checks every answer the program
// gave, prints every metric by name with its unit, and ends with one
// JSON line:
//
//	perfbench --workload climb|poll|suite --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// is a separate run that times calls into each layer from this
// package's own files and reports the per-layer metrics.  The exit code
// is 1 when an answer check failed and 2 when the run could not be made.
// See README.md for why each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// traceDir receives the span file of a traced run.
	traceDir string
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(config) (*result, error){
	"climb": runClimb,
	"poll":  runPoll,
	"suite": runSuite,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "climb, poll or suite")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced pass that reports per-layer metrics")
	fs.StringVar(&cfg.traceDir, "trace-dir", ".bench_build/perfbench", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload climb|poll|suite, --seconds > 0, --trace 0|1\n")
		return 2
	}
	cfg.traced = trace == 1
	res, err := drive(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 2
	}
	if miss := res.missing(cfg.traced); len(miss) > 0 {
		fmt.Fprintf(stderr, "perfbench: %s: no value for %v\n", cfg.workload, miss)
		return 2
	}
	res.print(stdout, cfg)
	if res.failed > 0 {
		return 1
	}
	return 0
}

// metricSet holds a run's measured values by metric name.
type metricSet map[string]float64

func (m metricSet) set(name string, v float64) { m[name] = v }

// result is one run's outcome.
type result struct {
	context   []string // "key: value" lines describing the run
	attempted int64
	failed    int64
	errs      []string // the first few check failures
	metrics   metricSet
	// aliases are the workload's own names for end-to-end metrics.
	aliases []string
}

func newResult(cfg config) *result {
	r := &result{metrics: metricSet{}}
	r.note("workload", cfg.workload)
	r.note("seed", fmt.Sprint(cfg.seed))
	r.note("seconds", fmt.Sprint(cfg.seconds))
	r.note("traced", fmt.Sprint(cfg.traced))
	r.note("nproc", fmt.Sprint(runtime.NumCPU()))
	r.note("gomaxprocs", fmt.Sprint(runtime.GOMAXPROCS(0)))
	r.note("go", runtime.Version())
	return r
}

func (r *result) note(k, v string) { r.context = append(r.context, k+": "+v) }

// failOp counts one failed operation and keeps its message.
func (r *result) failOp(msg string) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, msg)
	}
}

// alias prints an end-to-end metric under the workload's own name too.
func (r *result) alias(name, unit string, v float64, q *quantile) {
	s := fmt.Sprintf("%s = %s %s", name, fmtVal(v), unit)
	if q != nil {
		s += fmt.Sprintf("  [%s]", q)
	}
	r.aliases = append(r.aliases, s)
}

func fmtVal(v float64) string {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return fmt.Sprint(v)
	}
	return fmt.Sprintf("%.6g", v)
}

// jsonMetric is one entry of the final line's "metrics" object.
type jsonMetric struct {
	Value *float64 `json:"value"` // null when the value is not finite
	Unit  string   `json:"unit"`
}

// print writes the human-readable report and the final JSON line.  The
// JSON carries the end-to-end metrics with tracing off and the
// per-layer metrics with tracing on, exactly as BENCHMARK.json lists
// them.
func (r *result) print(w io.Writer, cfg config) {
	for _, c := range r.context {
		fmt.Fprintln(w, "# "+c)
	}
	for _, e := range r.errs {
		fmt.Fprintln(w, "CHECK FAILED: "+e)
	}
	fmt.Fprintf(w, "attempted = %d, failed = %d, fail_frac = %s ratio\n",
		r.attempted, r.failed, fmtVal(frac(r.failed, r.attempted)))
	for _, a := range r.aliases {
		fmt.Fprintln(w, a)
	}
	out := map[string]jsonMetric{}
	for _, d := range metricDefs {
		v, ok := r.metrics[d.name]
		if !ok {
			continue
		}
		kind := "end_to_end"
		if d.perLayer {
			kind = "per_layer"
		}
		fmt.Fprintf(w, "%-30s %14s %-6s (%s)\n", d.name, fmtVal(v), d.unit, kind)
		if d.perLayer == cfg.traced {
			jm := jsonMetric{Unit: d.unit}
			if !math.IsInf(v, 0) && !math.IsNaN(v) {
				jm.Value = &v
			}
			out[d.name] = jm
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, out})
	fmt.Fprintln(w, string(line))
}

// metricDef is one metric BENCHMARK.json declares.
type metricDef struct {
	name, unit, better string
	perLayer           bool
}

// metricDefs lists every metric in output order; BENCHMARK.json must
// declare exactly these (TestBenchmarkJSONMatchesDefs).  Every workload
// reports every metric: a layer a workload does not exercise reports 0.
var metricDefs = func() []metricDef {
	e2e := func(name, unit, better string) metricDef { return metricDef{name, unit, better, false} }
	pl := func(name, unit, better string) metricDef { return metricDef{name, unit, better, true} }
	defs := []metricDef{
		e2e("setup_s", "s", "lower"),
		e2e("peak_rss_mb", "MiB", "lower"),
		e2e("ops_per_s", "1/s", "higher"),
		e2e("op_p50_ms", "ms", "lower"),
		e2e("op_p90_ms", "ms", "lower"),

		pl("service.update_ms", "ms", "lower"),
		pl("service.solve_ms", "ms", "lower"),
		pl("service.solve_p99_ms", "ms", "lower"),
		pl("service.congestion_ms", "ms", "lower"),
		pl("service.cache_hit_frac", "ratio", "higher"),
		pl("service.coalesced_frac", "ratio", "higher"),
		pl("service.solves_run", "count", "lower"),
		pl("service.queue_max", "count", "lower"),
		pl("service.shed_admission_frac", "ratio", "lower"),
		pl("service.shed_overload_frac", "ratio", "lower"),
		pl("service.shed_deadline_frac", "ratio", "lower"),
		pl("service.resp_kb", "KiB", "lower"),
		pl("http.overhead_ms", "ms", "lower"),
		pl("game.solve_ms", "ms", "lower"),
		pl("game.solve_p99_ms", "ms", "lower"),
		pl("game.iters", "count", "lower"),
		pl("profkey.key_ms", "ms", "lower"),
	}
	for i := 1; i <= 21; i++ {
		defs = append(defs, pl(fmt.Sprintf("experiment.E%d_s", i), "s", "lower"))
	}
	return append(defs,
		pl("runtime.cpu_util", "ratio", "lower"),
		pl("runtime.gc_pause_ms", "ms", "lower"),
		pl("runtime.gc_cycles", "count", "lower"),
		pl("runtime.alloc_mb", "MiB", "lower"),
		pl("runtime.allocs_per_op", "count", "lower"),
		pl("loadgen.late_p99_ms", "ms", "lower"),
		pl("trace.overhead_frac", "ratio", "lower"),
	)
}()

// zeroLayers sets every per-layer metric whose name starts with one of
// the prefixes to 0: the workload does not exercise that layer.
func zeroLayers(m metricSet, prefixes ...string) {
	for _, d := range metricDefs {
		for _, p := range prefixes {
			if d.perLayer && strings.HasPrefix(d.name, p) {
				m.set(d.name, 0)
			}
		}
	}
}

// missing lists declared metrics of the given kind a result lacks.
func (r *result) missing(perLayer bool) []string {
	var out []string
	for _, d := range metricDefs {
		if _, ok := r.metrics[d.name]; d.perLayer == perLayer && !ok {
			out = append(out, d.name)
		}
	}
	return out
}
