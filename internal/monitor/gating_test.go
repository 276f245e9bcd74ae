package monitor

import (
	"fmt"
	"testing"
	"unsafe"
)

// loadViolating loads a guardrail that fires on io_done and violates on
// every evaluation, so Stats.ActionsFired counts exactly the
// evaluations whose actions were live.
func loadViolating(t *testing.T, rt *Runtime, name string) *Monitor {
	t.Helper()
	ms, err := rt.LoadSource(fmt.Sprintf(`
guardrail %s {
    trigger: { FUNCTION(io_done) },
    rule: { LOAD(lat) <= 0.5 },
    action: { SAVE(alert, 1) }
}`, name), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt.Store().Save("lat", 0.9)
	return ms[0]
}

// TestGatingChangesTakeEffectOnNextEvaluation: a control-plane call
// made between two fires republishes the gating snapshot, and the very
// next evaluation reads it.
func TestGatingChangesTakeEffectOnNextEvaluation(t *testing.T) {
	rt, k, _ := newRT()
	m := loadViolating(t, rt, "gated")
	fire := func(step string, evals, acted uint64) {
		t.Helper()
		k.Fire("io_done", 1)
		if s := m.Stats(); s.Evals != evals || s.ActionsFired != acted {
			t.Fatalf("%s: evals=%d actions=%d, want %d and %d", step, s.Evals, s.ActionsFired, evals, acted)
		}
	}
	fire("enabled", 1, 1)
	m.SetEnabled(false)
	fire("after SetEnabled(false)", 1, 1)
	m.SetEnabled(true)
	fire("after SetEnabled(true)", 2, 2)
	m.ForceShadow(true)
	fire("after ForceShadow(true)", 3, 2)
	m.ForceShadow(false)
	fire("after ForceShadow(false)", 4, 3)
	m.quarantine("test")
	fire("quarantined", 4, 3)
	m.Rearm()
	fire("after Rearm", 5, 4)
}

// TestActGatePairSplitsStrideAfterSkew: an incumbent that has evaluated
// more often than its candidate still splits the stride exactly with it
// once both gates are installed in one kernel step — each monitor's
// evaluation index restarts when it first sees its new gate.
func TestActGatePairSplitsStrideAfterSkew(t *testing.T) {
	rt, k, _ := newRT()
	inc := loadViolating(t, rt, "incumbent")
	for i := 0; i < 5; i++ {
		k.Fire("io_done", 0)
	}
	cand := loadViolating(t, rt, "candidate")
	for i := 0; i < 3; i++ {
		k.Fire("io_done", 0)
	}
	canary := func(n uint64) bool { return n%4 == 0 }
	k.At(k.Now(), func() {
		inc.SetActGate(func(n uint64) bool { return !canary(n) })
		cand.SetActGate(canary)
	})
	k.Step()
	for i := uint64(0); i < 40; i++ {
		a, b := inc.Stats().ActionsFired, cand.Stats().ActionsFired
		k.Fire("io_done", 0)
		da, db := inc.Stats().ActionsFired-a, cand.Stats().ActionsFired-b
		if da+db != 1 || (db == 1) != canary(i) {
			t.Fatalf("fire %d: incumbent acted %d, candidate %d times; want the candidate alone on every 4th fire", i, da, db)
		}
	}
}

// TestLastGoodCacheLineAligned: the per-cell last-good values, written
// on every LOAD, own whole 128-byte blocks.
func TestLastGoodCacheLineAligned(t *testing.T) {
	rt, _, _ := newRT()
	m := loadViolating(t, rt, "aligned")
	p := uintptr(unsafe.Pointer(unsafe.SliceData(m.lastGood)))
	if p%128 != 0 || cap(m.lastGood)*8%128 != 0 {
		t.Fatalf("lastGood at %#x with cap %d does not fill aligned 128-byte blocks", p, cap(m.lastGood))
	}
}
