package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"

	"guardrails/internal/featurestore"
	"guardrails/internal/kernel"
	"guardrails/internal/linnos"
	"guardrails/internal/monitor"
	"guardrails/internal/storage"
	"guardrails/internal/trace"
)

// The fig2 workload is the Figure 2 LinnOS experiment rebuilt from the
// public storage, linnos, monitor and kernel calls: a classifier trained
// on scratch devices, then a guarded and an unguarded stack over 60 s of
// simulated time with a write-heavy shift at 20 s. Each pass rebuilds
// both stacks from the seed, so every pass must produce the same
// deterministic summary; on seed 1 it must equal BENCH_fig2.json.

// listing2 is the paper's Listing 2 guardrail.
const listing2 = `
guardrail low-false-submit {
    trigger: {
        TIMER(start_time, 1e9) // Periodically check every 1s.
    },
    rule: {
        LOAD(false_submit_rate) <= 0.05
    },
    action: {
        SAVE(ml_enabled, false)
    }
}`

// fig2Shape is a pass's phase lengths: calm, then write-heavy until
// total. The benchmark always runs figure2; tests run shorter shapes.
type fig2Shape struct{ calm, total kernel.Time }

var figure2 = fig2Shape{calm: 20 * kernel.Second, total: 60 * kernel.Second}

const (
	fig2SampleEvery = 250 * kernel.Millisecond
	fig2GCDuration  = 16 * kernel.Millisecond
	fig2Revoke      = 1500 * kernel.Microsecond
	fig2Reference   = "BENCH_fig2.json"
	fig2TrainReps   = 3
	stepEvery       = 8 // time 1 in stepEvery I/O steps
)

// fig2Device builds one replica the way the experiment does: background
// GC on, long GC pauses, and a per-replica chip layout.
func fig2Device(name string, seed int64) (*storage.Device, error) {
	cfg := storage.DefaultDeviceConfig(name, seed)
	cfg.BackgroundGCRate = 0.5
	cfg.GCDuration = fig2GCDuration
	cfg.ChipSalt = uint64(trace.Split(seed, "layout/"+name))
	return storage.NewDevice(cfg)
}

// trainFig2 trains the LinnOS classifier on scratch devices under the
// calm-phase workload.
func trainFig2(seed int64) (*linnos.Classifier, error) {
	primary, err := fig2Device("train-primary", trace.Split(seed, "train0"))
	if err != nil {
		return nil, err
	}
	replica, err := fig2Device("train-replica", trace.Split(seed, "train1"))
	if err != nil {
		return nil, err
	}
	arr, err := storage.NewArray(primary, replica)
	if err != nil {
		return nil, err
	}
	keys := trace.NewZipfKeys(trace.Split(seed, "train-keys"), 1<<16, 1.2, true)
	wl := linnos.NewMixedWorkload(trace.Split(seed, "train-wl"), 20000, 0.05, keys)
	wl.SetWriteKeys(trace.NewUniformKeys(trace.Split(seed, "train-wkeys"), 1<<16))
	model, _, err := linnos.TrainedClassifier(arr, wl, 40000, kernel.Millisecond, trace.Split(seed, "model"), 0.75)
	return model, err
}

// fig2Stack is one LinnOS deployment: kernel, store, replica array,
// engine and workload generator.
type fig2Stack struct {
	k     *kernel.Kernel
	st    *featurestore.Store
	arr   *storage.Array
	eng   *linnos.Engine
	wl    *linnos.MixedWorkload
	reads []float64 // simulated read latencies, for the exact summary
}

func newFig2Stack(seed int64, model linnos.Predictor, reads []float64) (*fig2Stack, error) {
	primary, err := fig2Device("primary", seed)
	if err != nil {
		return nil, err
	}
	replica, err := fig2Device("replica", seed+1)
	if err != nil {
		return nil, err
	}
	arr, err := storage.NewArray(primary, replica)
	if err != nil {
		return nil, err
	}
	k := kernel.New()
	st := featurestore.New()
	cfg := linnos.DefaultConfig()
	cfg.RevokeTimeout = fig2Revoke
	cfg.MLSafetyTimeout = 0
	eng, err := linnos.NewEngine(k, st, arr, model, cfg)
	if err != nil {
		return nil, err
	}
	keys := trace.NewZipfKeys(trace.Split(seed, "keys"), 1<<16, 1.2, true)
	wl := linnos.NewMixedWorkload(seed, 20000, 0.05, keys)
	wl.SetWriteKeys(trace.NewUniformKeys(trace.Split(seed, "wkeys"), 1<<16))
	return &fig2Stack{k: k, st: st, arr: arr, eng: eng, wl: wl, reads: reads[:0]}, nil
}

// stepTimer times 1 in stepEvery I/O steps of a stack, and the wall
// time of every window of rateWindow consecutive steps within one run
// call (so that no window spans the other stack's turn); the traced
// pass also splits a sampled step into spans. With stepNs nil it times
// nothing.
type stepTimer struct {
	n        uint64
	stepNs   *sampler
	rate     *sampler // steps per wall second, per window
	winStart int64
	winN     int
	tr       *fig2Trace
}

func newStepTimer(tr *fig2Trace) *stepTimer {
	return &stepTimer{stepNs: newSampler(sampleCap), rate: newSampler(sampleCap), tr: tr}
}

// rateWindow is about a millisecond of steps: short enough that a host
// stall spoils few windows, long enough that two clock reads are noise.
const rateWindow = 1024

// run advances the stack until the workload clock passes until: next
// op, kernel catch-up (timers, hence monitor evaluations), then the
// engine's Read or Write.
func (s *fig2Stack) run(until kernel.Time, t *stepTimer) (steps int) {
	if t.stepNs != nil {
		t.winStart, t.winN = mono(), 0
	}
	for s.wl.Now() < until {
		if t.stepNs != nil {
			if t.winN == rateWindow {
				now := mono()
				t.rate.add(rateWindow / (float64(now-t.winStart) / 1e9))
				t.winStart, t.winN = now, 0
			}
			t.winN++
		}
		t.n++
		if t.stepNs == nil || t.n%stepEvery != 0 {
			s.step()
		} else if t.tr != nil {
			t.tr.step(s, t)
		} else {
			t0 := mono()
			s.step()
			t.stepNs.add(float64(mono() - t0))
		}
		steps++
	}
	return steps
}

func (s *fig2Stack) step() {
	op := s.wl.Next()
	s.k.RunUntil(op.At)
	if op.Write {
		s.eng.Write(op.At, op.LBA)
		return
	}
	lat, _ := s.eng.Read(op.At, op.LBA)
	s.reads = append(s.reads, float64(lat))
}

// latencySummary and fig2Summary mirror BENCH_fig2.json.
type latencySummary struct {
	Count  int     `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P95US  float64 `json:"p95_us"`
	P99US  float64 `json:"p99_us"`
}

type fig2Config struct {
	Config       string         `json:"config"`
	Read         latencySummary `json:"read_latency"`
	Evals        uint64         `json:"evals"`
	Violations   uint64         `json:"violations"`
	ActionsFired uint64         `json:"actions_fired"`
	Recoveries   uint64         `json:"recoveries"`
	VMSteps      uint64         `json:"vm_steps"`
}

type fig2Summary struct {
	Seed              int64        `json:"seed"`
	ShiftAtS          float64      `json:"shift_at_s"`
	GuardrailFiredAtS float64      `json:"guardrail_fired_at_s"`
	FalseSubmitRate   float64      `json:"false_submit_rate_at_trigger"`
	CalmUS            float64      `json:"calm_mean_us"`
	GuardedTailUS     float64      `json:"guarded_tail_us"`
	UnguardedTailUS   float64      `json:"unguarded_tail_us"`
	Configs           []fig2Config `json:"configs"`
}

// summarize sorts ns in place and summarizes it in microseconds, with
// nearest-lower-rank percentiles as the committed snapshot uses.
func summarize(ns []float64) latencySummary {
	if len(ns) == 0 {
		return latencySummary{}
	}
	sort.Float64s(ns)
	var sum float64
	for _, v := range ns {
		sum += v
	}
	q := func(p float64) float64 { return ns[int(p*float64(len(ns)-1))] / 1e3 }
	return latencySummary{Count: len(ns), MeanUS: sum / float64(len(ns)) / 1e3, P50US: q(0.50), P95US: q(0.95), P99US: q(0.99)}
}

// fig2Pass is one pass's outputs: the deterministic summary plus what
// the measurement and the ledger need. The measured figures cover the
// unguarded stack: its reads stay ML-routed for the whole pass, while
// the guarded stack's mix depends on when its guardrail fires (about
// 1 s or about 22 s in, depending on the seed), which would make a
// per-step figure bimodal across seeds.
type fig2Pass struct {
	sum          fig2Summary
	steps        int // both stacks
	timedSteps   int // unguarded stack
	timedAllocs  uint64
	timerTicks   uint64
	guarded      *fig2Stack
	unguarded    *fig2Stack
	monitorStats monitor.Stats
}

// fig2Buffers are the read-latency buffers reused across passes.
type fig2Buffers struct{ guarded, unguarded []float64 }

// runFig2Pass builds both stacks and runs the experiment once.
func runFig2Pass(seed int64, model linnos.Predictor, shape fig2Shape, bufs *fig2Buffers, t *stepTimer, heap *heapPeak) (*fig2Pass, error) {
	g, err := newFig2Stack(seed+100, model, bufs.guarded)
	if err != nil {
		return nil, err
	}
	u, err := newFig2Stack(seed+100, model, bufs.unguarded)
	if err != nil {
		return nil, err
	}
	rt := monitor.New(g.k, g.st)
	ms, err := rt.LoadSource(listing2, monitor.Options{})
	if err != nil {
		return nil, fmt.Errorf("loading Listing 2: %w", err)
	}
	mon := ms[0]
	p := &fig2Pass{guarded: g, unguarded: u}
	untimed := &stepTimer{}
	am := newAllocMeter()
	var firedAt kernel.Time
	var calmSum, gTail, uTail float64
	var calmN int
	var gSeries, uSeries []float64
	shifted := false
	for at := fig2SampleEvery; at <= shape.total; at += fig2SampleEvery {
		if !shifted && at > shape.calm {
			g.wl.SetWriteFraction(0.4)
			u.wl.SetWriteFraction(0.4)
			shifted = true
		}
		ng := g.run(at, untimed)
		a0 := am.read()
		nu := u.run(at, t)
		p.timedAllocs += am.read() - a0
		p.steps += ng + nu
		p.timedSteps += nu
		gv, uv := g.st.Load(linnos.KeyLatencyMA), u.st.Load(linnos.KeyLatencyMA)
		gSeries, uSeries = append(gSeries, gv), append(uSeries, uv)
		if at <= shape.calm {
			calmSum += gv
			calmN++
		}
		if firedAt == 0 && mon.Stats().ActionsFired > 0 {
			firedAt = g.k.Now()
			p.sum.FalseSubmitRate = g.st.Load(linnos.KeyFalseSubmitRate)
		}
	}
	// The pass holds the most at its end: both stacks and every read's
	// latency. A collection here makes the live-heap reading that
	// footprint, whenever the GC last ran; it falls outside the timed
	// steps and sample periods.
	runtime.GC()
	heap.sample()
	tail := len(gSeries) / 4
	for i := len(gSeries) - tail; i < len(gSeries); i++ {
		gTail += gSeries[i]
		uTail += uSeries[i]
	}
	st := mon.Stats()
	p.monitorStats = st
	p.sum.Seed = seed
	p.sum.ShiftAtS = float64(shape.calm) / float64(kernel.Second)
	p.sum.GuardrailFiredAtS = float64(firedAt) / float64(kernel.Second)
	p.sum.CalmUS = calmSum / float64(calmN)
	p.sum.GuardedTailUS = gTail / float64(tail)
	p.sum.UnguardedTailUS = uTail / float64(tail)
	p.sum.Configs = []fig2Config{
		{Config: "linnos", Read: summarize(u.reads)},
		{Config: "linnos+guardrails", Read: summarize(g.reads), Evals: st.Evals, Violations: st.Violations,
			ActionsFired: st.ActionsFired, Recoveries: st.Recoveries, VMSteps: st.VMSteps},
	}
	bufs.guarded, bufs.unguarded = g.reads, u.reads
	// Listing 2 ticks every second from 0; the guarded kernel ran every
	// timer instant before its final clock.
	p.timerTicks = uint64((g.k.Now() + kernel.Second - 1) / kernel.Second)
	return p, nil
}

// fig2Checker compares each pass with the reference (BENCH_fig2.json on
// seed 1, else the run's first pass) and counts mismatching passes'
// steps as failed.
type fig2Checker struct {
	ref               *fig2Summary
	attempted, failed uint64
	log               func(string, ...any)
}

func newFig2Checker(seed int64, log func(string, ...any)) (*fig2Checker, error) {
	c := &fig2Checker{log: log}
	if seed != 1 {
		return c, nil
	}
	data, err := os.ReadFile(fig2Reference)
	if err != nil {
		return nil, fmt.Errorf("reading the seed-1 reference: %w", err)
	}
	c.ref = new(fig2Summary)
	if err := json.Unmarshal(data, c.ref); err != nil {
		return nil, fmt.Errorf("%s: %w", fig2Reference, err)
	}
	return c, nil
}

func (c *fig2Checker) check(p *fig2Pass) {
	c.attempted += uint64(p.steps)
	ok := p.monitorStats.Evals == p.timerTicks
	if !ok {
		c.log("fig2: %d evaluations for %d timer ticks", p.monitorStats.Evals, p.timerTicks)
	}
	if c.ref == nil {
		ref := p.sum
		c.ref = &ref
	}
	got, _ := json.Marshal(p.sum)
	want, _ := json.Marshal(c.ref)
	if string(got) != string(want) {
		c.log("fig2: pass differs from the reference:\n  got  %s\n  want %s", got, want)
		ok = false
	}
	if !ok {
		c.failed += uint64(p.steps)
	}
}

// runFig2 is the untraced fig2 run: set-up is model training (median of
// fig2TrainReps), then whole passes until the measured time is up.
func runFig2(rc runConfig) (*outcome, error) {
	logf := func(f string, a ...any) { fmt.Fprintf(rc.log, f+"\n", a...) }
	chk, err := newFig2Checker(rc.seed, logf)
	if err != nil {
		return nil, err
	}
	var model *linnos.Classifier
	trains := make([]float64, 0, fig2TrainReps)
	for i := 0; i < fig2TrainReps; i++ {
		coldHeap()
		t0 := mono()
		if model, err = trainFig2(rc.seed); err != nil {
			return nil, fmt.Errorf("training: %w", err)
		}
		trains = append(trains, float64(mono()-t0)/1e9)
	}
	bufs := &fig2Buffers{}
	heap := newHeapPeak()
	t := newStepTimer(nil)
	// The warm-up pass is checked like the others but not timed.
	p, err := runFig2Pass(rc.seed, model, figure2, bufs, t, heap)
	if err != nil {
		return nil, err
	}
	chk.check(p)
	t, heap = newStepTimer(nil), newHeapPeak()
	runtime.GC()
	gc0 := readGC()
	var steps int
	var allocs uint64
	deadline := mono() + int64(rc.seconds*1e9)
	for passes := 0; passes == 0 || mono() < deadline; passes++ {
		if p, err = runFig2Pass(rc.seed, model, figure2, bufs, t, heap); err != nil {
			return nil, err
		}
		chk.check(p)
		steps += p.timedSteps
		allocs += p.timedAllocs
	}
	gc := readGC().sub(gc0)
	step := t.stepNs.values()
	o := &outcome{attempted: chk.attempted, failed: chk.failed, e2e: map[string]float64{
		"setup_s":       median(trains),
		"op_ns_p50":     quantile(step, 0.5),
		"op_ns_p99":     quantile(step, 0.99),
		"ops_per_s":     quantile(t.rate.values(), 0.5),
		"allocs_per_op": float64(allocs) / math.Max(1, float64(steps)),
		"peak_heap_mb":  heap.mb(),
	}}
	logf("%d unguarded I/O steps measured, %d step samples, guardrail fired at %.3fs, %d GC cycles",
		steps, len(step), p.sum.GuardrailFiredAtS, gc.cycles)
	return o, nil
}

// --- traced run -------------------------------------------------------

// timedPredictor wraps the classifier to time PredictSlow on sampled
// steps.
type timedPredictor struct {
	p      linnos.Predictor
	tr     *fig2Trace
	active bool
}

func (t *timedPredictor) PredictSlow(features []float64) bool {
	if !t.active {
		return t.p.PredictSlow(features)
	}
	t0 := mono()
	slow := t.p.PredictSlow(features)
	t1 := mono()
	t.tr.predict.add(float64(t1-t0) - t.tr.clock)
	t.tr.rec.child("nn.predict", t0, t1, t.tr.cur)
	return slow
}

// fig2Trace splits sampled steps into spans: next op, kernel catch-up,
// engine Read or Write, and the model's prediction inside a Read.
type fig2Trace struct {
	rec                        *spanRec
	clock                      float64
	pred                       *timedPredictor
	next, catchup, read, write *sampler
	predict                    *sampler
	cur                        int32
	req                        uint64
}

func (tr *fig2Trace) step(s *fig2Stack, t *stepTimer) {
	tr.req++
	t0 := mono()
	op := s.wl.Next()
	t1 := mono()
	s.k.RunUntil(op.At)
	t2 := mono()
	root := tr.rec.root("fig2.step", t0, t0, tr.req)
	tr.rec.child("trace.next", t0, t1, root)
	tr.rec.child("kernel.catchup", t1, t2, root)
	tr.next.add(float64(t1-t0) - tr.clock)
	tr.catchup.add(float64(t2-t1) - tr.clock)
	var t3 int64
	if op.Write {
		s.eng.Write(op.At, op.LBA)
		t3 = mono()
		tr.rec.child("linnos.write", t2, t3, root)
		tr.write.add(float64(t3-t2) - tr.clock)
	} else {
		tr.cur = tr.rec.child("linnos.read", t2, t2, root)
		tr.pred.active = true
		lat, _ := s.eng.Read(op.At, op.LBA)
		tr.pred.active = false
		t3 = mono()
		s.reads = append(s.reads, float64(lat))
		tr.rec.finish(tr.cur, t3)
		tr.read.add(float64(t3-t2) - tr.clock)
	}
	tr.rec.finish(root, t3)
	t.stepNs.add(float64(t3 - t0))
}

// traceFig2 alternates untraced and traced passes (at least one each)
// and reports the per-layer ledger of the traced ones. Like the
// end-to-end metrics, spans and counts cover the unguarded stack; the
// monitor counts come from the guarded one.
func traceFig2(rc runConfig) (*outcome, error) {
	logf := func(f string, a ...any) { fmt.Fprintf(rc.log, f+"\n", a...) }
	chk, err := newFig2Checker(rc.seed, logf)
	if err != nil {
		return nil, err
	}
	t0 := mono()
	model, err := trainFig2(rc.seed)
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	trainS := float64(mono()-t0) / 1e9
	tr := &fig2Trace{rec: newSpanRec(0, 1<<17, 64), clock: clockCost(),
		next: newSampler(sampleCap), catchup: newSampler(sampleCap), read: newSampler(sampleCap),
		write: newSampler(sampleCap), predict: newSampler(sampleCap)}
	tr.pred = &timedPredictor{p: model, tr: tr}
	plain, traced := newStepTimer(nil), newStepTimer(tr)
	bufs := &fig2Buffers{}
	heap := newHeapPeak()
	gc0 := readGC()
	var last *fig2Pass
	var steps int
	var reads, mlRouted, submits, gcs uint64
	deadline := mono() + int64(rc.seconds*1e9)
	for i := 0; i < 2 || mono() < deadline; i += 2 {
		p, err := runFig2Pass(rc.seed, model, figure2, bufs, plain, heap)
		if err != nil {
			return nil, err
		}
		chk.check(p)
		if last, err = runFig2Pass(rc.seed, tr.pred, figure2, bufs, traced, heap); err != nil {
			return nil, err
		}
		chk.check(last)
		steps += last.timedSteps
		u := last.unguarded
		es := u.eng.Stats()
		reads, mlRouted = reads+es.Reads, mlRouted+es.MLRouted
		for r := 0; r < u.arr.Len(); r++ {
			ds := u.arr.Replica(r).Stats()
			submits, gcs = submits+ds.Reads+ds.Writes, gcs+ds.GCs
		}
	}
	gc := readGC().sub(gc0)
	l := &ledger{base: float64(steps), unit: "I/O step"}
	st := last.monitorStats
	l.set("trace.next_ns", quantile(tr.next.values(), 0.5), "median MixedWorkload.Next span")
	l.set("linnos.read_ns", quantile(tr.read.values(), 0.5), "median Engine.Read span")
	l.set("linnos.write_ns", quantile(tr.write.values(), 0.5), "median Engine.Write span")
	l.set("linnos.ml_routed_share", float64(mlRouted)/math.Max(1, float64(reads)), fmt.Sprintf("ML-routed reads over %d reads", reads))
	l.set("nn.predict_ns", quantile(tr.predict.values(), 0.5), "median PredictSlow span (timing wrapper)")
	l.set("nn.train_s", trainS, "one training run")
	l.count("storage.submits", float64(submits))
	l.count("storage.gc_pauses", float64(gcs))
	l.count("monitor.evals", float64(st.Evals))
	l.count("monitor.violations", float64(st.Violations))
	l.count("monitor.actions_fired", float64(st.ActionsFired))
	l.set("vm.steps_per_eval", float64(st.VMSteps)/math.Max(1, float64(st.Evals)), "")
	l.count("go.gc_cycles", float64(gc.cycles))
	l.set("go.gc_pause_ns", float64(gc.pauseNs), "total over all passes")
	overhead := quantile(traced.stepNs.values(), 0.5) - quantile(plain.stepNs.values(), 0.5)
	l.set("tracing.overhead_ns", overhead, "traced minus untraced op_ns_p50")
	logf("kernel catch-up (timers, monitor) median %.0f ns per sampled step", quantile(tr.catchup.values(), 0.5))
	return &outcome{attempted: chk.attempted, failed: chk.failed, ledger: l, spans: []*spanRec{tr.rec}}, nil
}
