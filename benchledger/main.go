// Command benchledger is the repository's benchmark: it runs one named
// workload through the system's public entry points, checks the
// workload's outputs, and prints every end-to-end metric (untraced run)
// or every per-layer metric (traced run) as the last line of standard
// output:
//
//	benchledger --workload hotpath --seed 1 --seconds 10 --trace 0
//
// Workloads: hotpath, observed, fig2, admission (see README.md). The
// traced run also writes a Chrome/Perfetto trace and the per-layer
// table under --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run. An "op" is the workload's unit of work: a hook fire
// (hotpath, observed), an I/O step (fig2) or a corpus item's verdict
// (admission).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ns_p50", "ns"},
	{"op_ns_p99", "ns"},
	{"ops_per_s", "1/s"},
	{"allocs_per_op", "count"},
	{"peak_heap_mb", "MB"},
	{"ok_ratio", "ratio"},
}

// perLayer are the traced run's per-layer metrics, printed by every
// traced run; a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"kernel.dispatch_ns", "ns"},
	{"kernel.loop_ns_per_event", "ns"},
	{"kernel.events", "count"},
	{"kernel.fires", "count"},
	{"pool.shard_busy_share", "ratio"},
	{"pool.barrier_ns_p50", "ns"},
	{"pool.shard_skew", "ns"},
	{"pool.quanta", "count"},
	{"monitor.self_ns", "ns"},
	{"monitor.evals", "count"},
	{"monitor.violations", "count"},
	{"monitor.actions_fired", "count"},
	{"monitor.eval_miss", "count"},
	{"vm.run_ns", "ns"},
	{"vm.steps_per_eval", "count"},
	{"featurestore.save_ns", "ns"},
	{"telemetry.ns_per_fire", "ns"},
	{"telemetry.flight_events", "count"},
	{"provenance.ns_per_fire", "ns"},
	{"provenance.records", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ns", "ns"},
	{"host.stalled_ticks", "count"},
	{"trace.next_ns", "ns"},
	{"linnos.read_ns", "ns"},
	{"linnos.write_ns", "ns"},
	{"linnos.ml_routed_share", "ratio"},
	{"nn.predict_ns", "ns"},
	{"nn.train_s", "s"},
	{"storage.submits", "count"},
	{"storage.gc_pauses", "count"},
	{"spec.parse_us", "us"},
	{"vet.us", "us"},
	{"compile.us", "us"},
	{"vm.verify_us", "us"},
	{"interfere.us", "us"},
	{"modelcheck.us", "us"},
	{"tracing.overhead_ns", "ns"},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	out     string    // directory for traced-run artifacts
	log     io.Writer // human-readable progress and tables
}

// outcome is a workload's result: operation counts for the correctness
// line plus either end-to-end values (untraced) or a ledger (traced).
type outcome struct {
	attempted, failed uint64
	e2e               map[string]float64
	ledger            *ledger
	spans             []*spanRec
}

type workloadFns struct {
	run    func(runConfig) (*outcome, error)
	traced func(runConfig) (*outcome, error)
}

var workloads = map[string]workloadFns{
	"hotpath":   {run: runHotpath, traced: traceHotpath},
	"observed":  {run: runObserved, traced: traceObserved},
	"fig2":      {run: runFig2, traced: traceFig2},
	"admission": {run: runAdmission, traced: traceAdmission},
}

// metricJSON and resultJSON are the result line's shape.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchledger", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: hotpath, observed, fig2 or admission")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "wall seconds one run measures")
	traced := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "ledger"), "directory for the traced run's trace and table")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "benchledger: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	steal := startSteal()
	cfg := runConfig{seed: *seed, seconds: *seconds, out: *out, log: stdout}
	fn := wl.run
	if *traced == 1 {
		fn = wl.traced
	}
	o, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "benchledger: %s: %v\n", *name, err)
		return 1
	}

	st := newStamp(steal.share())
	stampLine, _ := json.Marshal(st)
	fmt.Fprintf(stdout, "stamp %s\n", stampLine)

	res := resultJSON{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricJSON{}}
	res.Correct = o.failed == 0 && o.attempted > 0
	if *traced == 1 {
		base := fmt.Sprintf("%s-seed%d", *name, *seed)
		vals := o.ledger.values()
		for _, m := range perLayer {
			res.Metrics[m.name] = metricJSON{Value: vals[m.name], Unit: m.unit}
		}
		o.ledger.render(stdout, *name)
		if err := writeLedger(filepath.Join(*out, base+".ledger.txt"), *name, o.ledger, string(stampLine)); err != nil {
			fmt.Fprintf(stderr, "benchledger: writing ledger: %v\n", err)
			return 1
		}
		tracePath := filepath.Join(*out, base+".trace.json")
		dropped, err := writeChromeTrace(tracePath, st, o.spans...)
		if err != nil {
			fmt.Fprintf(stderr, "benchledger: writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace written to %s (%d spans dropped by full buffers)\n", tracePath, dropped)
	} else {
		o.e2e["ok_ratio"] = 1 - float64(o.failed)/math.Max(1, float64(o.attempted))
		for _, m := range endToEnd {
			v, ok := o.e2e[m.name]
			if !ok || v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				fmt.Fprintf(stderr, "benchledger: %s: metric %s not measured (%v)\n", *name, m.name, v)
				return 1
			}
			res.Metrics[m.name] = metricJSON{Value: v, Unit: m.unit}
			fmt.Fprintf(stdout, "%-14s %14.6g %s\n", m.name, v, m.unit)
		}
	}
	fmt.Fprintf(stdout, "failed_ratio %d/%d\n", o.failed, o.attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchledger: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
