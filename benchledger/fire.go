package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"guardrails"
	"guardrails/internal/featurestore"
	"guardrails/internal/provenance"
	"guardrails/internal/vm"
)

// The fire-path workloads (hotpath, observed) drive the load of
// RunShardThroughput through the public ShardedSystem: every tickEvery
// of simulated time each shard SAVEs lat_ma and fires io_done
// fireBatch times, and each fire evaluates the shard-lat guardrail.

const shardGuard = `
guardrail shard-lat {
    trigger: { FUNCTION(io_done) },
    rule: { LOAD(lat_ma) <= 0.95 },
    action: { SAVE(alert, 1) }
}`

const (
	fireBatch  = 8
	tickEvery  = 10 * guardrails.Microsecond
	chunkSim   = 20 * guardrails.Millisecond // simulated time per RunUntil call
	patternLen = 4096                        // lat_ma inputs cycled per shard
	pairEvery  = 4                           // untraced: time 1 in pairEvery ticks
	setupReps  = 41
	sampleCap  = 1 << 17
	warmCap    = 1 << 10
	fireSite   = "io_done"
)

// fireConfig selects one configuration of the fire path.
type fireConfig struct {
	shards     int
	telemetry  bool
	provenance bool
	// overEvery: 1 in overEvery ticks (at seeded positions) pushes lat_ma
	// over the threshold, so every fire of that tick violates and runs
	// the SAVE action. 0 keeps every evaluation holding.
	overEvery int
	// probes adds the traced run's hooks and spans.
	probes bool
}

// latInputs is one shard's seeded lat_ma sequence and which entries
// violate the rule.
type latInputs struct {
	vals []float64
	over []bool
}

// makeLatInputs generates every shard's inputs from the seed. With
// overEvery > 0 exactly patternLen/overEvery entries per shard exceed
// the threshold.
func makeLatInputs(seed int64, shards, overEvery int) []latInputs {
	rng := rand.New(rand.NewSource(seed))
	out := make([]latInputs, shards)
	for i := range out {
		in := latInputs{vals: make([]float64, patternLen), over: make([]bool, patternLen)}
		for j := range in.vals {
			in.vals[j] = 0.10 + 0.80*rng.Float64()
		}
		if overEvery > 0 {
			for _, j := range rng.Perm(patternLen)[:patternLen/overEvery] {
				in.vals[j] = 0.96 + 0.5*rng.Float64()
				in.over[j] = true
			}
		}
		out[i] = in
	}
	return out
}

// fireShard is one shard's load generator.
type fireShard struct {
	k   *guardrails.Kernel
	st  *guardrails.Store
	lat featurestore.ID
	in  latInputs
	j   int

	ticks, overTicks uint64

	// pairStart is the start of a timed tick; the next tick's start
	// closes the interval. Cleared at every barrier, so no interval
	// spans a barrier wait.
	pairStart int64
	perFire   *sampler // tick start-to-start interval / fireBatch

	tr *shardTrace
}

// save writes the tick's lat_ma input.
func (s *fireShard) save() {
	s.st.SaveID(s.lat, s.in.vals[s.j])
	if s.in.over[s.j] {
		s.overTicks++
	}
	s.j = (s.j + 1) % patternLen
}

// tick is the untraced timer callback.
func (s *fireShard) tick(guardrails.Time) {
	if s.pairStart != 0 {
		s.perFire.add(float64(mono()-s.pairStart) / fireBatch)
		s.pairStart = 0
	}
	if s.ticks%pairEvery == 0 {
		s.pairStart = mono()
	}
	s.save()
	for b := 0; b < fireBatch; b++ {
		s.k.Fire(fireSite, float64(b))
	}
	s.ticks++
}

// fireSystem is one built configuration.
type fireSystem struct {
	sys    *guardrails.ShardedSystem
	shards []*fireShard
	mons   []*guardrails.Monitor
	sinks  []*guardrails.Telemetry
	provs  []*guardrails.Provenance

	simNow guardrails.Time
	events int

	rate      *sampler // fleet fires per wall second, per quantum
	lastBar   int64
	lastTicks uint64
	quanta    uint64
	heap      *heapPeak

	tr *poolTrace
}

func buildFire(cfg fireConfig, inputs []latInputs) (*fireSystem, error) {
	sys := guardrails.NewShardedSystem(cfg.shards)
	sys.RegisterAggregate("lat_ma", guardrails.AggMean)
	// Samplers start small so that set-up time is the system's own;
	// resetTiming sizes them before a measurement window.
	f := &fireSystem{sys: sys, rate: newSampler(warmCap), heap: newHeapPeak()}
	for i := 0; i < cfg.shards; i++ {
		sh := &fireShard{k: sys.Shard(i).Kernel, st: sys.Shard(i).Store, in: inputs[i], perFire: newSampler(warmCap)}
		f.shards = append(f.shards, sh)
	}
	if cfg.probes {
		f.tr = &poolTrace{rec: newSpanRec(cfg.shards, 1<<16, 16), barrierNs: newSampler(sampleCap), skew: newSampler(sampleCap)}
		for i, sh := range f.shards {
			sh.tr = newShardTrace(i)
			sh.k.Attach(fireSite, sh.tr.hookBefore)
		}
	}
	ms, err := sys.LoadGuardrails(shardGuard, guardrails.Options{})
	if err != nil {
		return nil, err
	}
	for i, sh := range f.shards {
		f.mons = append(f.mons, ms[i][0])
		if sh.tr != nil {
			sh.k.Attach(fireSite, sh.tr.hookAfter)
		}
	}
	if cfg.telemetry {
		f.sinks = sys.AttachTelemetry(4096)
	}
	if cfg.provenance {
		f.provs = sys.AttachProvenance(4096, provenance.DefaultHealthyEvery)
	}
	for _, sh := range f.shards {
		sh.lat = sh.st.Intern("lat_ma")
		cb := sh.tick
		if sh.tr != nil {
			cb = sh.tracedTick
		}
		sh.k.Every(0, tickEvery, 0, cb)
	}
	sys.Pool.OnBarrier(f.barrier)
	return f, nil
}

// barrier runs on the pool driver while every shard is parked.
func (f *fireSystem) barrier(guardrails.Time, uint64) {
	now := mono()
	var ticks uint64
	for _, sh := range f.shards {
		ticks += sh.ticks
		sh.pairStart = 0
	}
	if f.lastBar != 0 && ticks > f.lastTicks {
		f.rate.add(float64((ticks-f.lastTicks)*fireBatch) / (float64(now-f.lastBar) / 1e9))
	}
	if f.tr != nil {
		f.tr.barrier(now, f.lastBar, f.shards)
	}
	f.lastBar, f.lastTicks = now, ticks
	f.quanta++
	if f.quanta%64 == 0 {
		f.heap.sample()
	}
}

// runFor advances the system in chunkSim steps for seconds of wall time.
func (f *fireSystem) runFor(seconds float64) {
	deadline := mono() + int64(seconds*1e9)
	for mono() < deadline {
		f.runChunk()
	}
}

// runChunk runs chunkSim of simulated time. Its first quantum is not
// measured: in an alternating run, another system ran since this one's
// last barrier.
func (f *fireSystem) runChunk() {
	f.lastBar = 0
	f.simNow += chunkSim
	f.events += f.sys.RunUntil(f.simNow)
}

// resetTiming starts a fresh measurement window.
func (f *fireSystem) resetTiming() {
	f.rate = newSampler(sampleCap)
	f.heap = newHeapPeak()
	for _, sh := range f.shards {
		sh.perFire = newSampler(sampleCap)
		if sh.tr != nil {
			sh.tr.reset()
		}
	}
	if f.tr != nil {
		f.tr.reset()
	}
}

func (f *fireSystem) fires() uint64 {
	var n uint64
	for _, sh := range f.shards {
		n += sh.k.FireCount(fireSite)
	}
	return n
}

// perFireNs merges the shards' per-fire samples.
func (f *fireSystem) perFireNs() []float64 {
	var out []float64
	for _, sh := range f.shards {
		out = append(out, sh.perFire.values()...)
	}
	return out
}

// check compares each shard's monitor accounting with what the
// benchmark generated: every fire evaluated once, and violations and
// actions equal to fireBatch per seeded over-threshold tick.
func (f *fireSystem) check() (attempted, failed uint64) {
	for i, sh := range f.shards {
		st := f.mons[i].Stats()
		want := sh.ticks * fireBatch
		wantViol := sh.overTicks * fireBatch
		got := sh.k.FireCount(fireSite)
		attempted += want
		failed += absDiff(got, want) + absDiff(st.Evals, want) +
			absDiff(st.Violations, wantViol) + absDiff(st.ActionsFired, wantViol)
	}
	if failed > attempted {
		failed = attempted
	}
	return attempted, failed
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

func hotpathConfig() fireConfig { return fireConfig{shards: 2} }

func observedConfig() fireConfig {
	return fireConfig{shards: 1, telemetry: true, provenance: true, overEvery: 16}
}

func runHotpath(rc runConfig) (*outcome, error)  { return runFire(rc, hotpathConfig()) }
func runObserved(rc runConfig) (*outcome, error) { return runFire(rc, observedConfig()) }

// warmSeconds is the untimed run before a measurement window.
func warmSeconds(seconds float64) float64 { return math.Min(1, seconds/5) }

// runFire is the untraced fire-path run.
func runFire(rc runConfig, cfg fireConfig) (*outcome, error) {
	inputs := makeLatInputs(rc.seed, cfg.shards, cfg.overEvery)
	var f *fireSystem
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		coldHeap()
		t0 := mono()
		var err error
		if f, err = buildFire(cfg, inputs); err != nil {
			return nil, err
		}
		setups = append(setups, float64(mono()-t0)/1e9)
	}
	f.runFor(warmSeconds(rc.seconds))
	f.resetTiming()
	runtime.GC()
	am := newAllocMeter()
	gc0, a0, fires0 := readGC(), am.read(), f.fires()
	f.runFor(rc.seconds)
	gc, allocs, fires := readGC().sub(gc0), am.read()-a0, f.fires()-fires0
	f.heap.sample()

	o := &outcome{e2e: map[string]float64{}}
	o.attempted, o.failed = f.check()
	per := f.perFireNs()
	o.e2e["setup_s"] = median(setups)
	o.e2e["op_ns_p50"] = quantile(per, 0.5)
	o.e2e["op_ns_p99"] = quantile(per, 0.99)
	o.e2e["ops_per_s"] = quantile(f.rate.values(), 0.5)
	o.e2e["allocs_per_op"] = float64(allocs) / math.Max(1, float64(fires))
	o.e2e["peak_heap_mb"] = f.heap.mb()
	fmt.Fprintf(rc.log, "%d shard(s), %d fires measured, %d per-fire samples, %d quanta, %d GC cycles\n",
		cfg.shards, fires, len(per), f.quanta, gc.cycles)
	return o, nil
}

// --- traced run -------------------------------------------------------

// shardTrace is one shard's probes and span buffer. The probe hooks sit
// before and after the monitor's hook on io_done (Kernel.Attach runs
// hooks in attach order), so their clock reads bracket the monitor.
type shardTrace struct {
	rec      *spanRec
	clock    float64 // cost of one clock read, subtracted from spans
	fireN    uint64
	sampling bool

	hookIn, hookOut    int64
	prevStart, prevEnd int64 // within the current quantum; 0 after a barrier
	lastEnd            int64
	qBusyNs, gapNs     float64
	gaps               uint64
	dispatch, monitor  *sampler
	save, tickDur      *sampler
}

const fireSampleEvery = 16

func newShardTrace(shard int) *shardTrace {
	t := &shardTrace{rec: newSpanRec(shard, 1<<17, 128), clock: clockCost()}
	t.reset()
	return t
}

func (t *shardTrace) reset() {
	t.qBusyNs, t.gapNs, t.gaps = 0, 0, 0
	t.dispatch, t.monitor = newSampler(sampleCap), newSampler(sampleCap)
	t.save, t.tickDur = newSampler(sampleCap), newSampler(sampleCap)
	t.rec.reset()
}

func (t *shardTrace) hookBefore(*guardrails.Kernel, string, []float64) {
	if t.sampling {
		t.hookIn = mono()
	}
}

func (t *shardTrace) hookAfter(*guardrails.Kernel, string, []float64) {
	if t.sampling {
		t.hookOut = mono()
	}
}

// tracedTick is tick with spans: the tick, its SAVE, and 1 in
// fireSampleEvery fires with the monitor hook inside.
func (s *fireShard) tracedTick(guardrails.Time) {
	tr := s.tr
	t0 := mono()
	if tr.prevStart != 0 {
		s.perFire.add(float64(t0-tr.prevStart) / fireBatch)
	}
	if tr.prevEnd != 0 {
		tr.gapNs += float64(t0-tr.prevEnd) - tr.clock
		tr.gaps++
	}
	tr.prevStart = t0
	s.save()
	t1 := mono()
	tr.save.add(float64(t1-t0) - tr.clock)
	req := uint64(s.ticks)
	tickSpan, rooted := int32(-1), false
	for b := 0; b < fireBatch; b++ {
		tr.fireN++
		if tr.fireN%fireSampleEvery != 0 {
			s.k.Fire(fireSite, float64(b))
			continue
		}
		tr.sampling = true
		fs := mono()
		s.k.Fire(fireSite, float64(b))
		fe := mono()
		tr.sampling = false
		mon := tr.hookOut - tr.hookIn
		tr.dispatch.add(float64(fe-fs-mon) - 2*tr.clock)
		tr.monitor.add(float64(mon) - tr.clock)
		if !rooted {
			tickSpan = tr.rec.root("kernel.tick", t0, t0, req)
			tr.rec.child("featurestore.save", t0, t1, tickSpan)
			rooted = true
		}
		fi := tr.rec.child("kernel.fire", fs, fe, tickSpan)
		tr.rec.child("monitor.hook", tr.hookIn, tr.hookOut, fi)
	}
	s.ticks++
	t2 := mono()
	tr.rec.finish(tickSpan, t2)
	tr.qBusyNs += float64(t2 - t0)
	tr.tickDur.add(float64(t2 - t0))
	tr.prevEnd, tr.lastEnd = t2, t2
}

// poolTrace is the driver goroutine's view of each quantum.
type poolTrace struct {
	rec             *spanRec
	barrierNs, skew *sampler
	wallNs, busyNs  float64 // over counted quanta
}

func (p *poolTrace) reset() {
	p.barrierNs, p.skew = newSampler(sampleCap), newSampler(sampleCap)
	p.wallNs, p.busyNs = 0, 0
	p.rec.reset()
}

// barrier records the wait from the last shard's last tick to the
// barrier callback, the spread of the shards' finishing times, and the
// shards' busy time within the quantum. A quantum is counted only when
// the previous barrier belongs to the same RunUntil call (lastBar != 0).
func (p *poolTrace) barrier(now, lastBar int64, shards []*fireShard) {
	maxEnd, minEnd := int64(math.MinInt64), int64(math.MaxInt64)
	var busy float64
	for _, sh := range shards {
		maxEnd = max(maxEnd, sh.tr.lastEnd)
		minEnd = min(minEnd, sh.tr.lastEnd)
		busy += sh.tr.qBusyNs
		sh.tr.prevStart, sh.tr.prevEnd, sh.tr.qBusyNs = 0, 0, 0
	}
	if lastBar != 0 && maxEnd > lastBar {
		p.barrierNs.add(float64(now - maxEnd))
		p.skew.add(float64(maxEnd - minEnd))
		p.wallNs += float64(now - lastBar)
		p.busyNs += busy
		p.rec.root("pool.barrier", maxEnd, now, 0)
	}
}

func traceHotpath(rc runConfig) (*outcome, error)  { return traceFire(rc, hotpathConfig()) }
func traceObserved(rc runConfig) (*outcome, error) { return traceFire(rc, observedConfig()) }

// traceFire is the traced fire-path run. It builds the traced system
// next to the untraced one (the difference is the tracing overhead)
// and, where telemetry and provenance are attached, nested
// configurations without them; all run in alternating chunks so host
// noise lands on each alike.
func traceFire(rc runConfig, cfg fireConfig) (*outcome, error) {
	inputs := makeLatInputs(rc.seed, cfg.shards, cfg.overEvery)
	tcfg := cfg
	tcfg.probes = true
	traced, err := buildFire(tcfg, inputs)
	if err != nil {
		return nil, err
	}
	plain, err := buildFire(cfg, inputs)
	if err != nil {
		return nil, err
	}
	systems := []*fireSystem{traced, plain}
	var bare, teleOnly *fireSystem
	if cfg.telemetry {
		if bare, err = buildFire(fireConfig{shards: cfg.shards, overEvery: cfg.overEvery}, inputs); err != nil {
			return nil, err
		}
		if teleOnly, err = buildFire(fireConfig{shards: cfg.shards, overEvery: cfg.overEvery, telemetry: true}, inputs); err != nil {
			return nil, err
		}
		systems = append(systems, bare, teleOnly)
	}
	alternate := func(seconds float64) {
		deadline := mono() + int64(seconds*1e9)
		for mono() < deadline {
			for _, f := range systems {
				f.runChunk()
			}
		}
	}
	alternate(warmSeconds(rc.seconds))
	for _, f := range systems {
		f.resetTiming()
	}
	runtime.GC()
	gc0, ticks0 := readGC(), ticksOf(traced.shards)
	alternate(rc.seconds)
	gc := readGC().sub(gc0)

	o := &outcome{}
	for _, f := range systems {
		a, fl := f.check()
		o.attempted += a
		o.failed += fl
	}
	fires := float64(traced.fires())
	l := &ledger{base: fires, unit: "fire"}
	o.ledger = l

	var dispatch, monitor, save, tickDur []float64
	var gapNs float64
	var gaps uint64
	for _, sh := range traced.shards {
		dispatch = append(dispatch, sh.tr.dispatch.values()...)
		monitor = append(monitor, sh.tr.monitor.values()...)
		save = append(save, sh.tr.save.values()...)
		tickDur = append(tickDur, sh.tr.tickDur.values()...)
		gapNs += sh.tr.gapNs
		gaps += sh.tr.gaps
		o.spans = append(o.spans, sh.tr.rec)
	}
	o.spans = append(o.spans, traced.tr.rec)
	vmNs, stepsPerEval := vmRunNs(traced.mons)

	var evals, viol, acts uint64
	for _, m := range traced.mons {
		st := m.Stats()
		evals, viol, acts = evals+st.Evals, viol+st.Violations, acts+st.ActionsFired
	}
	l.set("kernel.dispatch_ns", quantile(dispatch, 0.5), "median Fire span minus monitor-hook span")
	l.set("kernel.loop_ns_per_event", gapNs/math.Max(1, float64(gaps)), "mean gap between a tick's end and the next tick's start")
	l.count("kernel.events", float64(traced.events))
	l.count("kernel.fires", fires)
	l.set("pool.shard_busy_share", traced.tr.busyNs/math.Max(1, traced.tr.wallNs*float64(cfg.shards)),
		fmt.Sprintf("tick time over quantum wall x %d shard(s)", cfg.shards))
	l.set("pool.barrier_ns_p50", quantile(traced.tr.barrierNs.values(), 0.5), "last tick end to OnBarrier")
	l.set("pool.shard_skew", quantile(traced.tr.skew.values(), 0.5), "median spread of shard finish times per quantum")
	l.count("pool.quanta", float64(traced.quanta))
	l.set("monitor.self_ns", quantile(monitor, 0.5)-vmNs, "median monitor-hook span minus vm.run_ns")
	l.count("monitor.evals", float64(evals))
	l.count("monitor.violations", float64(viol))
	l.count("monitor.actions_fired", float64(acts))
	l.count("monitor.eval_miss", float64(traced.fires())-float64(evals))
	l.set("vm.run_ns", vmNs, "nested: Machine.Run on the loaded program, monitor as Env")
	l.set("vm.steps_per_eval", stepsPerEval, "")
	l.set("featurestore.save_ns", quantile(save, 0.5), "median SaveID span per tick")
	if teleOnly != nil {
		bareP50 := quantile(bare.perFireNs(), 0.5)
		teleP50 := quantile(teleOnly.perFireNs(), 0.5)
		l.set("telemetry.ns_per_fire", teleP50-bareP50, "nested: op_ns_p50 with telemetry minus without")
		l.set("provenance.ns_per_fire", quantile(plain.perFireNs(), 0.5)-teleP50, "nested: op_ns_p50 with provenance minus telemetry only")
		var flight, records uint64
		for _, s := range traced.sinks {
			flight += s.Flight().Total()
		}
		for _, p := range traced.provs {
			records += p.Total()
		}
		l.count("telemetry.flight_events", float64(flight))
		l.count("provenance.records", float64(records))
	}
	l.count("go.gc_cycles", float64(gc.cycles))
	l.set("go.gc_pause_ns", float64(gc.pauseNs), "total over the traced window, all configurations")
	l.count("host.stalled_ticks", stalled(tickDur, float64(ticksOf(traced.shards)-ticks0)))
	l.set("tracing.overhead_ns", quantile(traced.perFireNs(), 0.5)-quantile(plain.perFireNs(), 0.5),
		"traced minus untraced op_ns_p50, alternating chunks")
	return o, nil
}

func ticksOf(shards []*fireShard) uint64 {
	var n uint64
	for _, sh := range shards {
		n += sh.ticks
	}
	return n
}

// stalled estimates how many ticks took over 20x the median tick, from
// a sample of tick durations scaled to the total tick count.
func stalled(tickDur []float64, ticks float64) float64 {
	if len(tickDur) == 0 {
		return 0
	}
	limit := 20 * median(tickDur)
	n := 0
	for _, d := range tickDur {
		if d > limit {
			n++
		}
	}
	return math.Round(float64(n) * ticks / float64(len(tickDur)))
}

// vmRunNs times Machine.Run on the first monitor's program with that
// monitor as the Env, outside the kernel and the monitor's bookkeeping,
// and returns the median ns per run plus the fleet's VM steps per
// evaluation.
func vmRunNs(mons []*guardrails.Monitor) (ns, stepsPerEval float64) {
	m := mons[0]
	p := m.Program()
	var mach vm.Machine
	const batch = 256
	runs := make([]float64, 0, 64)
	for r := 0; r < cap(runs); r++ {
		t0 := mono()
		for i := 0; i < batch; i++ {
			_, _ = mach.Run(p, m, float64(i%fireBatch)) // verified at load: cannot trap
		}
		runs = append(runs, float64(mono()-t0)/batch)
	}
	var steps, evals uint64
	for _, m := range mons {
		st := m.Stats()
		steps, evals = steps+st.VMSteps, evals+st.Evals
	}
	return quantile(runs, 0.5), float64(steps) / math.Max(1, float64(evals))
}
