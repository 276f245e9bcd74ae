package monitor

import (
	"sync"
	"testing"
)

// deployRaceSpec is a degraded deployment: ml-off and ml-on write
// opposing values to ml_enabled from the same hook (GI001 conflict →
// shadow quarantine under DeployWarn), and busy-watch sits on a hook
// site whose step budget is deliberately too small (GI005 → disabled).
const deployRaceSpec = `
guardrail ml-off {
    trigger: { FUNCTION(io_submit) },
    rule: { LOAD(err_rate) <= 0.01 },
    action: { SAVE(ml_enabled, 0) }
}
guardrail ml-on {
    trigger: { FUNCTION(io_submit) },
    rule: { LOAD(lat_p99) <= 5e6 },
    action: { SAVE(ml_enabled, 1) }
}
guardrail busy-watch {
    trigger: { FUNCTION(busy_site) },
    rule: { LOAD(err_rate) <= 0.01 },
    action: { REPORT(LOAD(err_rate)) }
}`

// TestDeployWarnQuarantineUnderConcurrentFire loads a degraded
// deployment while hook sites fire from concurrent goroutines — the
// admission test, the quarantine classification, and the arm/disarm
// transitions must all be safe against in-flight dispatches (run under
// go test -race). Conflict-implicated monitors land in shadow (they
// evaluate but never reach the feature store), the over-budget monitor
// lands disabled (it never evaluates at all).
func TestDeployWarnQuarantineUnderConcurrentFire(t *testing.T) {
	rt, k, st := newRT()
	st.Save("ml_enabled", 1)
	st.Save("err_rate", 0.5) // violates ml-off and busy-watch
	st.Save("lat_p99", 1e9)  // violates ml-on

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				k.Fire("io_submit", float64(n))
				k.Fire("busy_site", float64(n))
			}
		}(i)
	}

	cs, feats := compileAll(t, deployRaceSpec)
	res, err := rt.LoadDeployment(cs, DeployConfig{
		Policy:      DeployWarn,
		Features:    feats,
		HookBudgets: map[string]int{"busy_site": 1},
	})
	if err != nil {
		t.Fatalf("DeployWarn refused: %v", err)
	}
	// Let the firers hammer the freshly armed deployment, then stop.
	for i := 0; i < 1000; i++ {
		k.Fire("io_submit", float64(i))
	}
	close(stop)
	wg.Wait()

	if len(res.Shadowed) != 2 {
		t.Fatalf("Shadowed = %v, want the conflicting pair", res.Shadowed)
	}
	if len(res.Disabled) != 1 || res.Disabled[0] != "busy-watch" {
		t.Fatalf("Disabled = %v, want [busy-watch]", res.Disabled)
	}

	// One more uncontended round so every shadowed monitor has at least
	// one completed evaluation on the books (concurrent rounds can
	// be dropped by the single-evaluation claim).
	k.Fire("io_submit", 0)

	for _, m := range res.Monitors {
		s := m.Stats()
		switch m.Name() {
		case "busy-watch":
			if s.Evals != 0 {
				t.Errorf("disabled monitor evaluated %d times on the over-budget hook", s.Evals)
			}
		default:
			if s.Evals == 0 {
				t.Errorf("shadowed monitor %s never evaluated", m.Name())
			}
			if s.ActionsFired != 0 {
				t.Errorf("shadowed monitor %s fired %d actions", m.Name(), s.ActionsFired)
			}
		}
	}
	if got := st.Load("ml_enabled"); got != 1 {
		t.Errorf("ml_enabled = %v; quarantined SAVEs leaked through under concurrency", got)
	}
}

// TestQuarantineTogglesUnderConcurrentFire flips a live monitor through
// the quarantine transitions (enabled→disabled→enabled,
// live→forced-shadow→released) while hooks fire from other goroutines.
// Under go test -race this pins the transition paths as safe against
// in-flight evaluations; functionally, the monitor must end live.
func TestQuarantineTogglesUnderConcurrentFire(t *testing.T) {
	rt, k, st := newRT()
	st.Save("ml_enabled", 1)
	st.Save("err_rate", 0.5)
	cs, feats := compileAll(t, `
guardrail flip {
    trigger: { FUNCTION(io_submit) },
    rule: { LOAD(err_rate) <= 0.01 },
    action: { SAVE(ml_enabled, 0) }
}`)
	res, err := rt.LoadDeployment(cs, DeployConfig{Features: feats})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Monitors[0]

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				k.Fire("io_submit", float64(n))
			}
		}(i)
	}
	for i := 0; i < 500; i++ {
		m.SetEnabled(false)
		m.ForceShadow(true)
		m.ForceShadow(false)
		m.SetEnabled(true)
	}
	close(stop)
	wg.Wait()

	st.Save("ml_enabled", 1)
	k.Fire("io_submit", 0)
	if got := st.Load("ml_enabled"); got != 0 {
		t.Errorf("monitor did not act after the quarantine toggles settled (ml_enabled = %v)", got)
	}
	if m.Stats().Evals == 0 {
		t.Error("monitor never evaluated under concurrent fire")
	}
}
