package monitor

import (
	"strings"
	"sync"
	"testing"
	"time"

	"guardrails/internal/telemetry"
	"guardrails/internal/vm"
)

// within runs fn on its own goroutine and fails the test if it has not
// returned after a generous deadline: the deadlocks these tests guard
// against hang forever rather than fail.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not return: deadlock", what)
	}
}

// claimStatsSpec reports and saves on a violation, so one evaluation
// reaches a REPORT dispatch, a store watcher on flag, and (with
// PublishResult) the result watcher.
const claimStatsSpec = `
guardrail own {
    trigger: { FUNCTION(io_done) },
    rule: { LOAD(x) < 10 },
    action: { REPORT(LOAD(x)), SAVE(flag, 1) }
}`

// TestStatsFromOwnCallbacks: code a monitor's own evaluation calls —
// a watcher on the key its action SAVEs, a watcher on its PublishResult
// key, its OnRecover, and its REPORT dispatch (through the action-fault
// seam) — may read its Stats, and each read returns the exact counts at
// that point of the evaluation without deadlocking it.
func TestStatsFromOwnCallbacks(t *testing.T) {
	rt, k, st := newRT()
	type seen struct {
		where string
		s     Stats
	}
	var got []seen
	var m *Monitor
	record := func(where string) {
		got = append(got, seen{where, m.Stats()})
	}
	rt.SetFaultInjector(&testInjector{actionFault: func(_, action string) error {
		record("report:" + action)
		return nil
	}})
	st.Watch("flag", func(string, float64) { record("store") })
	st.Watch("guardrail.own.violated", func(string, float64) { record("publish") })
	ms, err := rt.LoadSource(claimStatsSpec, Options{
		PublishResult:  true,
		RecoveryStreak: 1,
		OnRecover:      func(*Monitor) { record("recover") },
	})
	if err != nil {
		t.Fatal(err)
	}
	m = ms[0]

	within(t, "evaluations reading their own Stats", func() {
		for _, x := range []float64{5, 50, 5} { // hold, violate, recover
			st.Save("x", x)
			k.Fire("io_done", x)
		}
	})

	type counts struct{ evals, viol, acted, rec uint64 }
	want := []struct {
		where string
		c     counts
	}{
		{"publish", counts{1, 0, 0, 0}},
		// The violating evaluation's actions run inside its VM run,
		// before its own counters are updated.
		{"report:REPORT", counts{1, 0, 0, 0}},
		{"store", counts{1, 0, 0, 0}},
		{"publish", counts{2, 1, 1, 0}},
		{"recover", counts{3, 1, 1, 1}},
		{"publish", counts{3, 1, 1, 1}},
	}
	if len(got) != len(want) {
		var where []string
		for _, g := range got {
			where = append(where, g.where)
		}
		t.Fatalf("Stats read from %v, want %d reads", where, len(want))
	}
	for i, w := range want {
		s := got[i].s
		c := counts{s.Evals, s.Violations, s.ActionsFired, s.Recoveries}
		if got[i].where != w.where || c != w.c {
			t.Errorf("read %d from %s: %+v, want from %s %+v", i, got[i].where, c, w.where, w.c)
		}
	}
}

// TestStatsPollersUnderConcurrentFireAndToggles: four goroutines fire an
// always-violating monitor while two poll its Stats and the control
// plane toggles SetEnabled and ForceShadow. Run under go test -race.
// Every snapshot is whole: the rule always fails, so a snapshot whose
// Violations differ from its Evals caught an evaluation half-counted.
func TestStatsPollersUnderConcurrentFireAndToggles(t *testing.T) {
	rt, k, _ := newRT()
	m := loadViolating(t, rt, "polled")

	const polls = 5000
	stop := make(chan struct{})
	var firers, pollers sync.WaitGroup
	for i := 0; i < 4; i++ {
		firers.Add(1)
		go func() {
			defer firers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				k.Fire("io_done", 1)
			}
		}()
	}
	for i := 0; i < 2; i++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			var last Stats
			for n := 0; n < polls; n++ {
				s := m.Stats()
				if s.Violations != s.Evals || s.ActionsFired > s.Evals {
					t.Errorf("torn snapshot: evals=%d violations=%d actions=%d", s.Evals, s.Violations, s.ActionsFired)
					return
				}
				if s.Evals < last.Evals || s.SkippedEvals < last.SkippedEvals {
					t.Errorf("counters went backwards: %+v after %+v", s, last)
					return
				}
				last = s
			}
		}()
	}
	polled := make(chan struct{})
	go func() {
		pollers.Wait()
		close(polled)
	}()
	within(t, "polling goroutines", func() {
		for {
			select {
			case <-polled:
				return
			default:
			}
			m.SetEnabled(false)
			m.ForceShadow(true)
			m.ForceShadow(false)
			m.SetEnabled(true)
		}
	})
	close(stop)
	within(t, "firing goroutines", firers.Wait)
	if m.Stats().Evals == 0 {
		t.Error("monitor never evaluated under concurrent fire")
	}
}

// TestReentrantDependencyTriggerCountsSkip: a dependency-triggered
// monitor whose action SAVEs the key its rule reads re-enters itself
// through the store watcher; the nested trigger is dropped, and counted
// in Stats and on /metrics.
func TestReentrantDependencyTriggerCountsSkip(t *testing.T) {
	rt, _, st := newRT()
	sink := telemetry.New(nil, 64)
	rt.SetTelemetry(sink)
	ms, err := rt.LoadSource(`
guardrail self-save {
    trigger: { TIMER(0, 1e15) },
    rule: { LOAD(q) < 100 },
    action: { SAVE(q, 50) }
}`, Options{DependencyTrigger: true})
	if err != nil {
		t.Fatal(err)
	}
	m := ms[0]
	st.Save("q", 500) // evaluates, violates, SAVEs q, which re-enters
	if s := m.Stats(); s.Evals != 1 || s.SkippedEvals != 1 {
		t.Fatalf("evals=%d skipped=%d, want 1 and 1", s.Evals, s.SkippedEvals)
	}
	if got := st.Load("q"); got != 50 {
		t.Fatalf("q = %v, want the action's 50", got)
	}
	var prom strings.Builder
	if err := sink.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "guardrails_monitor_evals_skipped_total 1\n") {
		t.Errorf("/metrics lacks guardrails_monitor_evals_skipped_total 1:\n%s", prom.String())
	}
}

// TestConcurrentFiresAccountedExactly: four goroutines fire an
// always-violating monitor; every fire either evaluated or was counted
// as skipped, none is lost.
func TestConcurrentFiresAccountedExactly(t *testing.T) {
	rt, k, _ := newRT()
	m := loadViolating(t, rt, "contended")
	const goroutines, perG = 4, 5000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				k.Fire("io_done", 1)
			}
		}()
	}
	wg.Wait()
	s := m.Stats()
	if s.Evals+s.SkippedEvals != goroutines*perG {
		t.Fatalf("evals %d + skipped %d = %d, want %d fires", s.Evals, s.SkippedEvals, s.Evals+s.SkippedEvals, goroutines*perG)
	}
	if s.Violations != s.Evals {
		t.Errorf("violations %d != evals %d for an always-violating rule", s.Violations, s.Evals)
	}
}

// TestStatsFromInjector: a FaultInjector's EvalFault, LoadFault and
// HelperFault may read the monitor's Stats; each read returns the
// counts before the running evaluation is counted.
func TestStatsFromInjector(t *testing.T) {
	rt, k, st := newRT()
	var m *Monitor
	var evals []uint64
	record := func() { evals = append(evals, m.Stats().Evals) }
	rt.SetFaultInjector(&testInjector{
		evalFault:   func(string) error { record(); return nil },
		loadFault:   func(string, string, float64) (float64, bool) { record(); return 0, false },
		helperFault: func(string, vm.HelperID) error { record(); return nil },
	})
	ms, err := rt.LoadSource(claimStatsSpec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m = ms[0]
	within(t, "evaluations whose injector reads Stats", func() {
		st.Save("x", 50)
		k.Fire("io_done", 50)
		k.Fire("io_done", 50)
	})
	if len(evals) < 6 {
		t.Fatalf("injector read Stats %d times, want at least one eval, load and helper call per evaluation", len(evals))
	}
	for i, e := range evals {
		if want := uint64(i * 2 / len(evals)); e != want {
			t.Errorf("read %d: evals %d, want %d", i, e, want)
		}
	}
	if s := m.Stats(); s.Evals != 2 || s.Violations != 2 {
		t.Errorf("evals=%d violations=%d, want 2 and 2", s.Evals, s.Violations)
	}
}

// TestEnvOutsideEvaluation: running a monitor's program through
// vm.Machine.Run with the monitor as the Env, outside any evaluation,
// on an input whose actions SAVE and REPORT, leaves the monitor usable:
// Stats returns and a later Fire is counted.
func TestEnvOutsideEvaluation(t *testing.T) {
	rt, k, st := newRT()
	ms, err := rt.LoadSource(claimStatsSpec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := ms[0]
	st.Save("x", 50)
	var mach vm.Machine
	out, err := mach.Run(m.Program(), m, 50)
	if err != nil || out != 0 {
		t.Fatalf("Run = %v, %v; want a violation", out, err)
	}
	if st.Load("flag") != 1 {
		t.Fatal("the program's SAVE did not reach the store")
	}
	within(t, "Stats after an outside run", func() {
		if s := m.Stats(); s.Evals != 0 || s.SkippedEvals != 0 {
			t.Errorf("evals=%d skipped=%d after an outside run, want 0 and 0", s.Evals, s.SkippedEvals)
		}
	})
	k.Fire("io_done", 50)
	within(t, "Stats after a fire", func() {
		if s := m.Stats(); s.Evals != 1 || s.SkippedEvals != 0 {
			t.Errorf("evals=%d skipped=%d after one fire, want 1 and 0", s.Evals, s.SkippedEvals)
		}
	})
}
