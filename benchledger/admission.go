package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"guardrails/internal/compile"
	"guardrails/internal/spec"
	"guardrails/internal/spec/interfere"
	"guardrails/internal/spec/modelcheck"
	"guardrails/internal/spec/vet"
	"guardrails/internal/vm"
)

// The admission workload is the operator's path from spec text to a
// deployment verdict: parse and check, vet, compile and verify,
// interference analysis with witnesses, and the temporal model check.
// It runs over every spec (.grail) and deployment manifest (.json) under
// cmd/*/testdata, in a seeded order, and compares each verdict with
// expectedVerdicts.

const corpusGlob = "cmd/*/testdata/*"

// corpusItem is one spec file, or one manifest with its spec files.
type corpusItem struct {
	path        string
	srcs        []string // spec texts, in manifest order
	hookBudget  int
	hookBudgets map[string]int
	shards      int
	aggregates  []string
	properties  []string
	shadow      []string
}

// manifest is the deployment manifest format cmd/grailcheck reads.
type manifest struct {
	Specs       []string       `json:"specs"`
	HookBudget  int            `json:"hook_budget"`
	HookBudgets map[string]int `json:"hook_budgets"`
	Shards      int            `json:"shards"`
	Aggregates  []string       `json:"aggregates"`
	Properties  []string       `json:"properties"`
	Shadow      []string       `json:"shadow"`
}

// loadCorpus reads every corpus file, sorted by path. Manifest spec
// paths resolve relative to the manifest's directory.
func loadCorpus() ([]corpusItem, error) {
	paths, err := filepath.Glob(corpusGlob)
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var items []corpusItem
	for _, p := range paths {
		switch filepath.Ext(p) {
		case ".grail":
			src, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			items = append(items, corpusItem{path: p, srcs: []string{string(src)}})
		case ".json":
			data, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			var m manifest
			if err := json.Unmarshal(data, &m); err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			it := corpusItem{path: p, hookBudget: m.HookBudget, hookBudgets: m.HookBudgets, shards: m.Shards,
				aggregates: m.Aggregates, properties: m.Properties, shadow: m.Shadow}
			for _, s := range m.Specs {
				src, err := os.ReadFile(filepath.Join(filepath.Dir(p), s))
				if err != nil {
					return nil, fmt.Errorf("%s: %w", p, err)
				}
				it.srcs = append(it.srcs, string(src))
			}
			items = append(items, it)
		}
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("no corpus files match %s", corpusGlob)
	}
	return items, nil
}

// verdict is the admission outcome of one corpus item: reject (a parse,
// check, compile or verification error), warn (any warning, refuted or
// inconclusive property) or clean, plus every diagnostic code reported
// up to that point, sorted and deduplicated.
type verdict struct {
	Verdict string
	Codes   []string
}

func (v verdict) String() string { return v.Verdict + " " + strings.Join(v.Codes, ",") }

// stageTimes is the wall time of each admission stage, summed over
// admissions. The traced run fills it, with a span per stage in rec;
// the untraced run passes nil. With footprint set, every stage boundary
// also collects the heap and reads the live heap: the pipeline's
// footprint with each stage's results still held.
type stageTimes struct {
	parse, vet, compile, verify, interfere, modelcheck int64
	admissions                                         uint64
	rec                                                *spanRec
	footprint                                          *heapPeak
}

// admit runs one corpus item through the admission pipeline.
func admit(it *corpusItem, st *stageTimes) verdict {
	codes := map[string]bool{}
	warn := false
	result := func(v string) verdict {
		out := verdict{Verdict: v}
		for c := range codes {
			out.Codes = append(out.Codes, c)
		}
		sort.Strings(out.Codes)
		return out
	}
	timed := st != nil
	if !timed {
		st = &stageTimes{}
	}
	root := int32(-1)
	clock := func(acc *int64, name string, t0 int64) int64 {
		if !timed {
			return 0
		}
		t1 := mono()
		*acc += t1 - t0
		if st.rec != nil {
			st.rec.child(name, t0, t1, root)
			st.rec.finish(root, t1)
		}
		if st.footprint != nil {
			runtime.GC()
			st.footprint.sample()
			t1 = mono()
		}
		return t1
	}
	var t int64
	if timed {
		st.admissions++
		t = mono()
		if st.rec != nil {
			root = st.rec.root("admission.verdict", t, t, st.admissions)
		}
	}

	var files []*spec.File
	for _, src := range it.srcs {
		f, err := spec.Parse(src)
		if err == nil {
			err = spec.Check(f)
		}
		if err != nil {
			clock(&st.parse, "spec.parse", t)
			return result("reject")
		}
		files = append(files, f)
	}
	t = clock(&st.parse, "spec.parse", t)

	var vcfg *vet.Config
	if it.aggregates != nil {
		vcfg = &vet.Config{Aggregates: it.aggregates}
	}
	for _, f := range files {
		for _, d := range vet.FileConfig(f, vcfg) {
			codes[d.Code] = true
			warn = warn || d.Severity == vet.Warn
		}
	}
	t = clock(&st.vet, "vet", t)

	dep := &interfere.Deployment{HookBudget: it.hookBudget, HookBudgets: it.hookBudgets, Shards: it.shards, Witness: true}
	var props []*spec.PropertyDecl
	for _, src := range it.properties {
		p, err := spec.ParseProperty(src)
		if err != nil {
			clock(&st.parse, "spec.parse", t)
			return result("reject")
		}
		props = append(props, p)
	}
	for _, f := range files {
		cs, err := compile.File(f)
		if err != nil {
			clock(&st.compile, "compile", t)
			return result("reject")
		}
		dep.Monitors = append(dep.Monitors, cs...)
		dep.Features = append(dep.Features, f.Features...)
		props = append(props, f.Properties...)
	}
	t = clock(&st.compile, "compile", t)
	if timed {
		// Nested: compile.File verifies each program; verifying the
		// compiled programs again, outside the compile span, gives the
		// verifier's share, which the ledger subtracts from compile.
		for _, c := range dep.Monitors {
			_ = vm.Verify(c.Program, vm.NumBuiltinHelpers) // verified once already
		}
		t = clock(&st.verify, "vm.verify", t)
	}

	rep := interfere.Analyze(dep)
	for _, d := range rep.Diagnostics {
		codes[d.Code] = true
	}
	warn = warn || rep.Warnings() > 0
	t = clock(&st.interfere, "interfere", t)

	mc := modelcheck.Check(dep, modelcheck.Config{Properties: props, Shadow: it.shadow, Witness: true})
	for _, d := range mc.Diagnostics {
		codes[d.Code] = true
	}
	warn = warn || !mc.Clean()
	clock(&st.modelcheck, "modelcheck", t)
	if warn {
		return result("warn")
	}
	return result("clean")
}

// expectedVerdicts is written by hand from the committed goldens, the
// CI expectations in .github/workflows/ci.yml, the corpus files' own
// comments, and the diagnostic codes' documented definitions applied to
// each file by reading it; it never comes from running the code under
// test. A corpus file missing here fails the run (and the benchmark's
// tests). Codes include infos (GV005: a SAVEd key no rule in the file
// LOADs), which do not make a verdict "warn".
var expectedVerdicts = map[string]verdict{
	// vet_diags.golden and vet_witness.golden list the vet codes. Both
	// files divide by a constant zero, which vet_witness.grail notes
	// "fails verification at every optimization level", so
	// compile+verify rejects them; CI requires vet_diags to fail.
	"cmd/grailc/testdata/vet_diags.grail": {"reject",
		[]string{"GV001", "GV002", "GV003", "GV004", "GV005", "GV006", "GV007", "GV008", "GV009"}},
	"cmd/grailc/testdata/vet_witness.grail": {"reject", []string{"GV002", "GV003", "GV005", "GV009"}},
	// vet_range.golden: GV010 twice; util-watch "guards nothing" over
	// its declared range, which is GI006 (a dead guardrail).
	"cmd/grailc/testdata/vet_range.grail": {"warn", []string{"GI006", "GV010"}},
	// CI: "grailc -vet -check-only listing2.grail" passes; ml_enabled is
	// SAVEd and never LOADed in the file.
	"cmd/grailc/testdata/listing2.grail": {"clean", []string{"GV005"}},
	// temporal_osc.golden: GI004, GM001, GM003; each guardrail SAVEs
	// the mode its own rule LOADs (GV006). check_osc is the same file.
	"cmd/grailc/testdata/check_osc.grail":        {"warn", []string{"GI004", "GM001", "GM003", "GV006"}},
	"cmd/grailcheck/testdata/temporal_osc.grail": {"warn", []string{"GI004", "GM001", "GM003", "GV006"}},
	// CI: temporal_clean.json model-checks clean (both properties
	// proved). escalate-one's rule LOAD(bad_tenant_err) < 0.5 cannot
	// hold over the declared range(0.8, 1) — by design, per the file's
	// comment — which vet reports as GV010 (cf. lat-watch in
	// vet_range.golden); quarantined is LOADed only by an assert.
	// check_clean is the same file.
	"cmd/grailc/testdata/check_clean.grail":        {"warn", []string{"GV005", "GV010"}},
	"cmd/grailcheck/testdata/temporal_clean.grail": {"warn", []string{"GV005", "GV010"}},
	"cmd/grailcheck/testdata/temporal_clean.json":  {"warn", []string{"GV005", "GV010"}},
	// aggregates_dirty.golden: GV011; CI: aggregates_clean.json exits 0.
	// fallback_enabled is SAVEd and never LOADed.
	"cmd/grailcheck/testdata/aggregates.grail":      {"clean", []string{"GV005"}},
	"cmd/grailcheck/testdata/aggregates_clean.json": {"clean", []string{"GV005"}},
	"cmd/grailcheck/testdata/aggregates_dirty.json": {"warn", []string{"GV005", "GV011"}},
	// conflict.golden: GI001 and GI002 (CI requires conflict.json to
	// fail); budget.json caps io_uring_submit at 4 steps against the
	// golden's 16 (GI005), and sharded.json scales that cap by 4 shards
	// to exactly 16. Both rules fail together on every dispatch where
	// io_err_rate > 0.01 and io_lat_p99 > 5e6, so ml_enabled alternates
	// 0 and 1 on a reachable cycle: GM003 by its definition.
	"cmd/grailcheck/testdata/conflict.json":    {"warn", []string{"GI001", "GI002", "GM003", "GV005"}},
	"cmd/grailcheck/testdata/budget.json":      {"warn", []string{"GI001", "GI002", "GI005", "GM003", "GV005"}},
	"cmd/grailcheck/testdata/sharded.json":     {"warn", []string{"GI001", "GI002", "GM003", "GV005"}},
	"cmd/grailcheck/testdata/conflict_a.grail": {"clean", []string{"GV005"}},
	"cmd/grailcheck/testdata/conflict_b.grail": {"clean", []string{"GV005"}},
	// CI: clean.json exits 0; the P1-P5 monitors' SAVE(linnos_enabled)
	// is never LOADed. clean_hook only REPORTs.
	"cmd/grailcheck/testdata/clean.json":       {"clean", []string{"GV005"}},
	"cmd/grailcheck/testdata/clean_core.grail": {"clean", []string{"GV005"}},
	"cmd/grailcheck/testdata/clean_hook.grail": {"clean", nil},
	// deep_witness.grail: the same DEPRIORITIZE from one hook (GI003).
	"cmd/grailcheck/testdata/deep_witness.grail": {"warn", []string{"GI003"}},
	// feedback.golden: GI004.
	"cmd/grailcheck/testdata/feedback.grail": {"warn", []string{"GI004"}},
	// witness.golden: GI001 twice; quality-mode and latency-mode both
	// fail whenever err_rate > 0.5, so serving_mode alternates 1 and 2
	// (GM003); serving_mode and throttle are never LOADed.
	"cmd/grailcheck/testdata/witness.grail": {"warn", []string{"GI001", "GM003", "GV005"}},
	// grailctl's rollout fixtures: one guardrail each, alert never
	// LOADed.
	"cmd/grailctl/testdata/fleet_v1.grail":    {"clean", []string{"GV005"}},
	"cmd/grailctl/testdata/fleet_v2.grail":    {"clean", []string{"GV005"}},
	"cmd/grailctl/testdata/fleet_storm.grail": {"clean", []string{"GV005"}},
}

// checkCoverage reports a corpus file with no expected verdict, so a
// new spec cannot join the corpus unchecked.
func checkCoverage(items []corpusItem) error {
	for _, it := range items {
		if _, ok := expectedVerdicts[it.path]; !ok {
			return fmt.Errorf("corpus file %s has no expected verdict in expectedVerdicts", it.path)
		}
	}
	return nil
}

// admissionBench is the loaded corpus and its per-item checks.
type admissionBench struct {
	items  []corpusItem
	order  []int
	lat    []int64 // round's latencies, item-major
	rng    *rand.Rand
	failed uint64
	done   uint64
	log    func(string, ...any)
}

func newAdmissionBench(seed int64, log func(string, ...any)) (*admissionBench, []float64, error) {
	var items []corpusItem
	loads := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		coldHeap()
		t0 := mono()
		var err error
		if items, err = loadCorpus(); err != nil {
			return nil, nil, err
		}
		loads = append(loads, float64(mono()-t0)/1e9)
	}
	if err := checkCoverage(items); err != nil {
		return nil, nil, err
	}
	b := &admissionBench{items: items, rng: rand.New(rand.NewSource(seed)), log: log}
	for i := range items {
		b.order = append(b.order, i)
	}
	return b, loads, nil
}

// roundReps is how many times a round admits the corpus, in one seeded
// order. An item's latency is the median of its roundReps admissions,
// each with other items between them, so that a host stall of a few
// milliseconds (longer than most verdicts) does not become the item's
// latency, and no repetition runs on caches the same item just warmed.
const roundReps = 3

// round admits every item roundReps times in a fresh seeded order and
// calls each with every item's median latency.
func (b *admissionBench) round(st *stageTimes, each func(ns int64)) {
	b.rng.Shuffle(len(b.order), func(i, j int) { b.order[i], b.order[j] = b.order[j], b.order[i] })
	if cap(b.lat) < roundReps*len(b.order) {
		b.lat = make([]int64, roundReps*len(b.order))
	}
	lat := b.lat[:roundReps*len(b.order)]
	for r := 0; r < roundReps; r++ {
		for k, i := range b.order {
			it := &b.items[i]
			var verify0 int64
			if st != nil {
				verify0 = st.verify
			}
			t0 := mono()
			v := admit(it, st)
			ns := mono() - t0
			if st != nil {
				ns -= st.verify - verify0 // the nested re-verification is the ledger's, not the verdict's
			}
			lat[k*roundReps+r] = ns
			b.done++
			if want := expectedVerdicts[it.path]; v.String() != want.String() {
				b.failed++
				b.log("admission: %s: verdict %q, want %q", it.path, v, want)
			}
		}
	}
	for k := range b.order {
		reps := lat[k*roundReps : (k+1)*roundReps]
		sort.Slice(reps, func(i, j int) bool { return reps[i] < reps[j] })
		each(reps[roundReps/2])
	}
}

func runAdmission(rc runConfig) (*outcome, error) {
	logf := func(f string, a ...any) { fmt.Fprintf(rc.log, f+"\n", a...) }
	b, loads, err := newAdmissionBench(rc.seed, logf)
	if err != nil {
		return nil, err
	}
	noop := func(int64) {}
	warm := mono() + int64(warmSeconds(rc.seconds)*1e9)
	for mono() < warm {
		b.round(nil, noop)
	}
	// One untimed round measures the footprint: the live heap after a
	// collection at every stage boundary of every item.
	heap := newHeapPeak()
	b.round(&stageTimes{footprint: heap}, noop)
	lat := newSampler(sampleCap)
	var rates []float64
	runtime.GC()
	am := newAllocMeter()
	gc0, a0, done0 := readGC(), am.read(), b.done
	deadline := mono() + int64(rc.seconds*1e9)
	for mono() < deadline {
		var sum int64
		b.round(nil, func(ns int64) {
			lat.add(float64(ns))
			sum += ns
		})
		rates = append(rates, float64(len(b.items))/(float64(sum)/1e9))
	}
	gc, allocs, verdicts := readGC().sub(gc0), am.read()-a0, b.done-done0
	ns := lat.values()
	logf("%d corpus items, %d verdicts measured over %d rounds, %d GC cycles", len(b.items), verdicts, len(rates), gc.cycles)
	return &outcome{attempted: b.done, failed: b.failed, e2e: map[string]float64{
		"setup_s":       median(loads),
		"op_ns_p50":     quantile(ns, 0.5),
		"op_ns_p99":     quantile(ns, 0.99),
		"ops_per_s":     quantile(rates, 0.5),
		"allocs_per_op": float64(allocs) / math.Max(1, float64(verdicts)),
		"peak_heap_mb":  heap.mb(),
	}}, nil
}

// traceAdmission alternates untraced and traced rounds; the traced ones
// time every stage of every item.
func traceAdmission(rc runConfig) (*outcome, error) {
	logf := func(f string, a ...any) { fmt.Fprintf(rc.log, f+"\n", a...) }
	b, _, err := newAdmissionBench(rc.seed, logf)
	if err != nil {
		return nil, err
	}
	st := stageTimes{rec: newSpanRec(0, 1<<16, 4)}
	plain, traced := newSampler(sampleCap), newSampler(sampleCap)
	gc0 := readGC()
	deadline := mono() + int64(rc.seconds*1e9)
	for rounds := 0; rounds < 2 || mono() < deadline; rounds += 2 {
		b.round(nil, func(ns int64) { plain.add(float64(ns)) })
		b.round(&st, func(ns int64) { traced.add(float64(ns)) })
	}
	gc := readGC().sub(gc0)
	l := &ledger{base: float64(st.admissions), unit: "verdict"}
	per := func(ns int64) float64 { return float64(ns) / 1e3 / math.Max(1, float64(st.admissions)) }
	l.set("spec.parse_us", per(st.parse), "mean per verdict: Parse + Check")
	l.set("vet.us", per(st.vet), "mean per verdict")
	l.set("compile.us", per(st.compile-st.verify), "mean per verdict: compile.File minus the nested vm.Verify")
	l.set("vm.verify_us", per(st.verify), "mean per verdict: vm.Verify of every compiled program")
	l.set("interfere.us", per(st.interfere), "mean per verdict, witnesses on")
	l.set("modelcheck.us", per(st.modelcheck), "mean per verdict, witnesses on")
	l.count("go.gc_cycles", float64(gc.cycles))
	l.set("go.gc_pause_ns", float64(gc.pauseNs), "total over all rounds")
	l.set("tracing.overhead_ns", quantile(traced.values(), 0.5)-quantile(plain.values(), 0.5),
		"traced minus untraced op_ns_p50, alternating rounds")
	return &outcome{attempted: b.done, failed: b.failed, ledger: l, spans: []*spanRec{st.rec}}, nil
}
