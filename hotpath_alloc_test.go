package guardrails

// Allocation guards for the in-kernel hot paths: a monitor evaluation
// must not touch the heap, or the guardrail's own overhead violates the
// P5 discipline it enforces. testing.AllocsPerRun fails these the moment
// a change reintroduces a per-dispatch or per-evaluation allocation.

import (
	"runtime"
	"testing"

	"guardrails/internal/compile"
	"guardrails/internal/featurestore"
	"guardrails/internal/kernel"
	"guardrails/internal/monitor"
	"guardrails/internal/provenance"
	"guardrails/internal/telemetry"
	"guardrails/internal/vm"
)

// staticEnv is the smallest possible vm.Env: direct cell-index access.
type staticEnv struct{ vals []float64 }

func (e *staticEnv) LoadCell(i int32) float64     { return e.vals[i] }
func (e *staticEnv) StoreCell(i int32, v float64) { e.vals[i] = v }
func (e *staticEnv) Helper(h vm.HelperID, args *[5]float64) (float64, error) {
	return 0, nil
}

func TestMachineRunAllocationFree(t *testing.T) {
	cs, err := compile.Source(benchSpec)
	if err != nil {
		t.Fatal(err)
	}
	env := &staticEnv{vals: make([]float64, len(cs[0].Program.Symbols))}
	var m vm.Machine
	if _, err := m.Run(cs[0].Program, env, 0); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := m.Run(cs[0].Program, env, 0); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("vm.Machine.Run allocates %v times per run, want 0", n)
	}
}

func TestMonitorEvaluateSteadyStateAllocationFree(t *testing.T) {
	k := kernel.New()
	st := featurestore.New()
	rt := monitor.New(k, st)
	ms, err := rt.LoadSource(benchSpec, monitor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Save("false_submit_rate", 0.01) // property holds: no action dispatch
	ms[0].Evaluate(0)                  // warm up lazy state
	if n := testing.AllocsPerRun(1000, func() { ms[0].Evaluate(0) }); n != 0 {
		t.Errorf("steady-state Monitor.Evaluate allocates %v times per run, want 0", n)
	}
}

// TestMonitorEvaluateProvenanceDisabledAllocationFree: the nil-recorder
// capture sites (one atomic load plus nil tests) must keep the hot path
// allocation-free — the CI gate for the disabled provenance plane.
func TestMonitorEvaluateProvenanceDisabledAllocationFree(t *testing.T) {
	k := kernel.New()
	st := featurestore.New()
	rt := monitor.New(k, st)
	rt.SetProvenance(nil) // explicit: the disabled plane
	ms, err := rt.LoadSource(benchSpec, monitor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Save("false_submit_rate", 0.01)
	ms[0].Evaluate(0)
	if n := testing.AllocsPerRun(1000, func() { ms[0].Evaluate(0) }); n != 0 {
		t.Errorf("Evaluate with provenance disabled allocates %v times per run, want 0", n)
	}
}

// TestMonitorEvaluateProvenanceEnabledAllocationFree: even with every
// decision recorded (healthyEvery=1, branch tracing on, scratch fill,
// ring commit), capture stays on the stack and in preallocated rings.
func TestMonitorEvaluateProvenanceEnabledAllocationFree(t *testing.T) {
	k := kernel.New()
	st := featurestore.New()
	rt := monitor.New(k, st)
	rt.SetProvenance(provenance.New(256, 1))
	ms, err := rt.LoadSource(benchSpec, monitor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Save("false_submit_rate", 0.01)
	ms[0].Evaluate(0)
	if n := testing.AllocsPerRun(1000, func() { ms[0].Evaluate(0) }); n != 0 {
		t.Errorf("Evaluate with provenance enabled allocates %v times per run, want 0", n)
	}
	if rt.Provenance().Total() == 0 {
		t.Fatal("recorder captured nothing; the measurement exercised the wrong path")
	}
}

// shardLatSpec is the fire-path guardrail of the shard-throughput load:
// one hook-triggered LOAD-and-compare per io_done fire.
const shardLatSpec = `
guardrail shard-lat {
    trigger: { FUNCTION(io_done) },
    rule: { LOAD(lat_ma) <= 0.95 },
    action: { SAVE(alert, 1) }
}`

// TestKernelFireThroughMonitorAllocationFree: a hook fire that runs a
// loaded monitor allocates nothing — the variadic argument slice stays
// on the caller's stack because hooks see the kernel's own buffer.
func TestKernelFireThroughMonitorAllocationFree(t *testing.T) {
	k := kernel.New()
	st := featurestore.New()
	rt := monitor.New(k, st)
	ms, err := rt.LoadSource(shardLatSpec, monitor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Save("lat_ma", 0.5)
	x := 0.0
	k.Fire("io_done", x)
	if n := testing.AllocsPerRun(1000, func() {
		x++
		k.Fire("io_done", x)
	}); n != 0 {
		t.Errorf("Kernel.Fire through a monitor allocates %v times per fire, want 0", n)
	}
	if ms[0].Stats().Evals < 1000 {
		t.Fatalf("monitor evaluated %d times; the fires did not reach it", ms[0].Stats().Evals)
	}
}

// TestMonitorEvaluatePublishResultAllocationFree: publishing the
// verdict to guardrail.<name>.violated writes a cell interned at load,
// so it allocates nothing even for a name too long to build on the
// stack.
func TestMonitorEvaluatePublishResultAllocationFree(t *testing.T) {
	k := kernel.New()
	st := featurestore.New()
	rt := monitor.New(k, st)
	ms, err := rt.LoadSource(benchSpec, monitor.Options{PublishResult: true})
	if err != nil {
		t.Fatal(err)
	}
	const key = "guardrail.low-false-submit.violated"
	published := 0
	st.Watch(key, func(string, float64) { published++ })
	st.Save("false_submit_rate", 0.01)
	ms[0].Evaluate(0)
	if n := testing.AllocsPerRun(1000, func() { ms[0].Evaluate(0) }); n != 0 {
		t.Errorf("Evaluate with PublishResult allocates %v times per run, want 0", n)
	}
	if published < 1000 {
		t.Fatalf("%s was written %d times; the result was not published", key, published)
	}
	st.Save("false_submit_rate", 0.9)
	ms[0].Evaluate(0)
	if got := st.Load(key); got != 1 {
		t.Errorf("%s = %v after a violation, want 1", key, got)
	}
}

// TestKernelFireWithTelemetryAllocationFree: with a telemetry sink on
// the kernel, the runtime and the store, a hook fire through a monitor
// still allocates nothing. Each measured run fires 32 times, so it
// covers the sampled wall-clock fires as well as the untimed ones; the
// ring is small enough to wrap on every run; and the sink is attached
// just before measuring, so the first (unmeasured) run resolves the
// site's and the monitor's histogram handles.
func TestKernelFireWithTelemetryAllocationFree(t *testing.T) {
	const firesPerRun = 32
	k := kernel.New()
	st := featurestore.New()
	rt := monitor.New(k, st)
	ms, err := rt.LoadSource(shardLatSpec, monitor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Save("lat_ma", 0.5)
	x := 0.0
	k.Fire("io_done", x)
	sink := telemetry.New(func() telemetry.Time { return int64(k.Now()) }, 8)
	k.SetTelemetry(sink)
	rt.SetTelemetry(sink)
	st.SetTelemetry(sink)
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < firesPerRun; i++ {
			x++
			k.Fire("io_done", x)
		}
	}); n != 0 {
		t.Errorf("Kernel.Fire with telemetry attached allocates %v times per %d fires, want 0", n, firesPerRun)
	}
	snap := sink.Snapshot()
	if fires := snap.Counters["hook_fires_total"]; fires < 100*firesPerRun {
		t.Fatalf("sink counted %d fires; the fires did not reach it", fires)
	}
	if snap.HookDispatchNS["io_done"].Count == 0 || snap.EvalVMSteps[ms[0].Name()].Count == 0 {
		t.Fatal("no dispatch or eval histogram sample; the measurement missed the handle path")
	}
	if snap.EventsTotal <= uint64(sink.Flight().Cap()) {
		t.Fatal("flight ring never wrapped")
	}
}

// TestTimerTickAllocationFree: a periodic timer tick driven by RunUntil
// allocates nothing — events sit by value in the kernel's heap, so
// rescheduling the next tick is not an allocation.
func TestTimerTickAllocationFree(t *testing.T) {
	k := kernel.New()
	ticks := 0
	k.Every(0, kernel.Millisecond, 0, func(kernel.Time) { ticks++ })
	now := kernel.Time(0)
	step := func() {
		now += kernel.Millisecond
		k.RunUntil(now)
	}
	step()
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Errorf("one timer tick allocates %v times, want 0", n)
	}
	if ticks < 1000 {
		t.Fatalf("timer ticked %d times; RunUntil did not drive it", ticks)
	}
}

// TestShardedQuantumFiresAllocationFree: a 2-shard quantum of the
// shard-throughput load (per shard, every 10µs: one SAVE, then 8
// io_done fires through the guardrail) allocates no more than an
// identical pool quantum with no load. The pool's per-quantum
// bookkeeping (shard goroutines, the epoch aggregate) is the only
// allocation left, so the 1600 fires of a quantum allocate nothing.
func TestShardedQuantumFiresAllocationFree(t *testing.T) {
	const quanta = 200
	mallocs := func(load bool) (allocs, fires uint64) {
		sys := NewShardedSystem(2)
		sys.RegisterAggregate("lat_ma", AggMean)
		if load {
			if _, err := sys.LoadGuardrails(shardLatSpec, Options{}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < sys.NumShards(); i++ {
				sh := sys.Shard(i)
				lat := sh.Store.Intern("lat_ma")
				sh.Kernel.Every(0, 10*Microsecond, 0, func(Time) {
					sh.Store.SaveID(lat, 0.5)
					for b := 0; b < 8; b++ {
						sh.Kernel.Fire("io_done", float64(b))
					}
				})
			}
		}
		now := sys.Pool.Quantum()
		sys.RunUntil(now) // warm up: size heaps and first-use state
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for q := 0; q < quanta; q++ {
			now += sys.Pool.Quantum()
			sys.RunUntil(now)
		}
		runtime.ReadMemStats(&after)
		for i := 0; i < sys.NumShards(); i++ {
			fires += sys.Shard(i).Kernel.FireCount("io_done")
		}
		return after.Mallocs - before.Mallocs, fires
	}
	idle, _ := mallocs(false)
	loaded, fires := mallocs(true)
	if fires < quanta*1600 {
		t.Fatalf("only %d fires ran; the load did not run", fires)
	}
	// Fewer than one allocation per two quanta of 1600 fires: any
	// per-fire or per-tick allocation would add hundreds per quantum.
	if extra := int64(loaded) - int64(idle); extra >= quanta/2 {
		t.Errorf("%d quanta of fires allocate %d times more than idle quanta (%.4f per fire), want 0",
			quanta, extra, float64(extra)/float64(fires))
	}
}
