package main

import (
	"io"
	"os"
	"testing"

	"guardrails/internal/kernel"
)

// The workloads read committed files (BENCH_fig2.json, the spec corpus)
// relative to the repository root, where the benchmark runs.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func tiny() runConfig { return runConfig{seed: 3, seconds: 0.2, out: os.TempDir(), log: io.Discard} }

func checkOutcome(t *testing.T, o *outcome, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if o.attempted == 0 || o.failed != 0 {
		t.Fatalf("attempted %d, failed %d", o.attempted, o.failed)
	}
}

func TestFireWorkloadsCorrectAtTinySize(t *testing.T) {
	for name, fn := range map[string]func(runConfig) (*outcome, error){
		"hotpath": runHotpath, "observed": runObserved, "hotpath traced": traceHotpath, "observed traced": traceObserved,
	} {
		t.Run(name, func(t *testing.T) {
			o, err := fn(tiny())
			checkOutcome(t, o, err)
		})
	}
}

func TestObservedViolationsFollowTheSeed(t *testing.T) {
	in := makeLatInputs(5, 1, 16)
	over := 0
	for _, o := range in[0].over {
		if o {
			over++
		}
	}
	if over != patternLen/16 {
		t.Fatalf("%d of %d inputs over the threshold, want %d", over, patternLen, patternLen/16)
	}
	f, err := buildFire(observedConfig(), in)
	if err != nil {
		t.Fatal(err)
	}
	f.runChunk()
	st := f.mons[0].Stats()
	if st.Violations == 0 || st.Violations != f.shards[0].overTicks*fireBatch {
		t.Fatalf("%d violations, want %d (8 per over-threshold tick)", st.Violations, f.shards[0].overTicks*fireBatch)
	}
	if _, failed := f.check(); failed != 0 {
		t.Fatalf("check failed %d", failed)
	}
}

func TestFig2PassesAgreeAtTinySize(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the LinnOS model")
	}
	model, err := trainFig2(3)
	if err != nil {
		t.Fatal(err)
	}
	shape := fig2Shape{calm: 2 * kernel.Second, total: 3 * kernel.Second}
	chk, err := newFig2Checker(3, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		p, err := runFig2Pass(3, model, shape, &fig2Buffers{}, newStepTimer(nil), newHeapPeak())
		if err != nil {
			t.Fatal(err)
		}
		if p.timerTicks != 4 {
			t.Errorf("pass %d: %d timer ticks over 3 s, want 4", i, p.timerTicks)
		}
		chk.check(p)
	}
	if chk.attempted == 0 || chk.failed != 0 {
		t.Fatalf("attempted %d, failed %d", chk.attempted, chk.failed)
	}
}

func TestFig2MatchesCommittedReferenceOnSeed1(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full Figure 2 experiment")
	}
	model, err := trainFig2(1)
	if err != nil {
		t.Fatal(err)
	}
	chk, err := newFig2Checker(1, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	p, err := runFig2Pass(1, model, figure2, &fig2Buffers{}, newStepTimer(nil), newHeapPeak())
	if err != nil {
		t.Fatal(err)
	}
	chk.check(p)
	if chk.failed != 0 {
		t.Fatal("the seed-1 pass differs from BENCH_fig2.json")
	}
}

func TestAdmissionCorrectAtTinySize(t *testing.T) {
	b, _, err := newAdmissionBench(3, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	b.round(nil, func(int64) {})
	b.round(&stageTimes{}, func(int64) {})
	if b.done != uint64(2*roundReps*len(b.items)) || b.failed != 0 {
		t.Fatalf("%d verdicts, %d wrong", b.done, b.failed)
	}
}

func TestExpectedVerdictsCoverTheCorpus(t *testing.T) {
	items, err := loadCorpus()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCoverage(items); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, it := range items {
		seen[it.path] = true
	}
	for path := range expectedVerdicts {
		if !seen[path] {
			t.Errorf("expectedVerdicts names %s, which is not in the corpus", path)
		}
	}
	extra := append(items, corpusItem{path: "cmd/grailc/testdata/new_spec.grail"})
	if err := checkCoverage(extra); err == nil {
		t.Error("a corpus file without an expected verdict passed the coverage check")
	}
}
