// Package kernel provides the simulated operating-system kernel the
// guardrail monitors run inside: a deterministic discrete-event clock,
// kprobe-style hook points (the paper's FUNCTION trigger sites), periodic
// timers (the TIMER trigger), and a task registry with priorities (the
// substrate for the DEPRIORITIZE action).
//
// Real deployments would compile guardrails to eBPF programs attached to
// kernel functions; here subsystem simulators call Fire at their
// instrumentation points and monitors attach to those sites. Determinism
// is a feature: every experiment in the repository replays exactly given
// the same seeds.
//
// Each event loop is single-threaded (one goroutine steps a kernel at a
// time, as a real kernel hook path runs under its own synchronization),
// but the bookkeeping — scheduling, hook attach/detach, the clock — is
// safe to call from other goroutines: monitor runtimes schedule retry
// and cool-down events from action paths, and fault-injection stress
// tests load and unload monitors while the clock advances.
//
// The per-event path costs only what its kernel owns: events live by
// value in a binary heap (no allocation per scheduled event or timer
// tick), one lock acquisition pops the next due event, and Fire finds
// its site by a scan of the copy-on-write site table — linear in the
// site count, which is one or two per instrumented subsystem, and
// cheaper than hashing the name. Scalar hooks (AttachScalar, which
// monitors use) are passed the first argument by value. Slice hooks
// (Attach) see a kernel-owned argument buffer that the stepping
// goroutine claims with one CAS, so the caller's variadic slice stays
// on its stack; a Fire that finds the buffer taken — a hook firing
// another site, or a Fire from another goroutine — copies its
// arguments to the heap instead. Only a site with a slice hook claims
// the buffer, so a steady fire at a monitor's site makes three fenced
// atomic operations: the site's fire counter in the kernel, and the
// claim and release of the monitor's evaluation. A Fire at a site with
// no hooks only counts the fire. The state each shard writes on
// every event (clock, heap, argument buffer, per-site fire counters)
// sits on cache lines no other shard touches.
//
// For multi-core execution a Pool runs N Kernel shards — each with its
// own clock, event heap, hook table, and task registry — concurrently
// between deterministic barrier points (see pool.go), the simulated
// analogue of per-CPU eBPF program instances and per-CPU maps.
package kernel

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"guardrails/internal/telemetry"
)

// Time is simulated time in nanoseconds since boot.
type Time int64

// Common durations in simulated nanoseconds.
const (
	Microsecond Time = 1000
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String renders the time with adaptive units.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// cacheLine is the false-sharing granularity this package pads to: two
// 64-byte lines, because x86's adjacent-line prefetcher moves them as a
// pair. The Go allocator places an object whose size is a multiple of
// 128 bytes (and a size class, as 128, 256, 384, 512 and 768 are) at a
// 128-byte boundary, so padding per-shard state to such a size gives
// each copy its own lines; TestShardStateCacheLineAligned checks it.
const cacheLine = 128

type event struct {
	at  Time
	seq uint64
	fn  func()
}

// before orders events by time, then by schedule order. seq is unique,
// so the order is total and the heap's shape cannot change it.
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// eventQueue is a binary min-heap of events held by value.
type eventQueue []event

// initialQueueCap pre-sizes each kernel's heap to 16 events: 384 bytes,
// a 128-byte multiple, so a shard's few pending events never share a
// cache line with another shard's heap.
const initialQueueCap = 3 * cacheLine / int(unsafe.Sizeof(event{}))

func (q *eventQueue) push(e event) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	*q = h
}

// pop removes and returns the earliest event; the queue must be
// non-empty.
func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // drop the closure reference
	h = h[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && h[r].before(&h[l]) {
			c = r
		}
		if !h[c].before(&h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	*q = h
	return top
}

// HookFn observes a hook-point firing. args are site-specific positional
// values (e.g. latency, size); hooks must not retain the slice.
type HookFn func(k *Kernel, site string, args []float64)

// ScalarHookFn observes a hook-point firing through its first argument
// alone (0 when the fire has none). See AttachScalar.
type ScalarHookFn func(k *Kernel, site string, arg0 float64)

// PanicHandler observes a panic recovered from a hook callback; see
// SetHookPanicHandler.
type PanicHandler func(site string, recovered any)

// hookSlot is one attached hook: fn for a slice hook, scalar (with fn
// nil) for a scalar one.
type hookSlot struct {
	id     uint64
	fn     HookFn
	scalar ScalarHookFn
}

// call runs the hook with whichever argument form it takes.
func (s *hookSlot) call(k *Kernel, site string, args []float64, arg0 float64) {
	if s.fn != nil {
		s.fn(k, site, args)
		return
	}
	s.scalar(k, site, arg0)
}

// hookList is a site's attached hooks in attach order. It is immutable:
// every attach and detach publishes a new list. anySlice records
// whether some hook takes the argument slice — the only kind that needs
// the kernel's argument buffer.
type hookList struct {
	slots    []hookSlot
	anySlice bool
}

func newHookList(slots []hookSlot) *hookList {
	l := &hookList{slots: slots}
	for _, s := range slots {
		l.anySlice = l.anySlice || s.fn != nil
	}
	return l
}

// hookSite is one hook point's dispatch state. The hook list is
// copy-on-write behind an atomic pointer so Fire — the per-event hot
// path every shard runs concurrently — reads it with a single atomic
// load: no lock, no allocation. The padding gives each site (and so
// each shard's copy of a site) its own cache lines for the fire
// counter written on every Fire.
type hookSite struct {
	name  string
	hooks atomic.Pointer[hookList]
	fires atomic.Uint64
	// tel is the site's dispatch-latency histogram in the sink it was
	// resolved from; a sampled Fire re-resolves it when the kernel's
	// sink has changed.
	tel atomic.Pointer[siteTel]
	_   [cacheLine - 40]byte
}

// siteTel pairs a telemetry sink with a hook site's histogram in it.
type siteTel struct {
	sink *telemetry.Sink
	hist *telemetry.Hist
}

// dispatchHist returns the site's dispatch-latency histogram in sink,
// resolving it by name only when the sink differs from the last one.
func (hs *hookSite) dispatchHist(sink *telemetry.Sink) *telemetry.Hist {
	if t := hs.tel.Load(); t != nil && t.sink == sink {
		return t.hist
	}
	h := sink.HookHist(hs.name)
	hs.tel.Store(&siteTel{sink: sink, hist: h})
	return h
}

// dispatchSampleEvery is the wall-clock sampling period of Fire: with
// a sink attached, Fire times the dispatch of a site's n-th fire
// (counting from 1) when n is a multiple of it. Every fire is still
// counted and recorded in the flight ring.
const dispatchSampleEvery = 16

// maxFireArgs is the size of the kernel-owned Fire argument buffer;
// Fire calls with more arguments copy them to the heap.
const maxFireArgs = 4

// Kernel is a deterministic discrete-event simulated kernel — in a
// sharded Pool, one shard. One goroutine at a time may step the event
// loop; scheduling, hook registration, and clock reads are safe from
// any goroutine.
type Kernel struct {
	// The state is written on every event (clock, heap, argument buffer)
	// or read on every Fire; padding the struct to a 128-byte multiple
	// keeps it off the cache lines of the next shard's Kernel.
	_ [(cacheLine - unsafe.Sizeof(kernelState{})%cacheLine) % cacheLine]byte
	kernelState
}

type kernelState struct {
	now atomic.Int64 // Time

	qmu   sync.Mutex // guards seq + queue
	seq   uint64
	queue eventQueue

	// argBuf is the argument buffer Fire hands to slice hooks; argBusy
	// is claimed by CAS for the duration of one dispatch (see Fire).
	argBuf  [maxFireArgs]float64
	argBusy atomic.Bool

	// sites is the copy-on-write hook table: the slice is replaced
	// wholesale (under hmu) when a new site appears, and the *hookSite
	// entries themselves are stable, so Fire dispatches entirely from
	// atomic loads. hmu serializes mutations only.
	hmu        sync.Mutex
	sites      atomic.Pointer[[]*hookSite]
	hookID     uint64
	panicGuard atomic.Value // PanicHandler
	hookPanics atomic.Uint64

	tsink atomic.Pointer[telemetry.Sink]

	// generation is the active deployment generation number, advanced by
	// the rollout control plane on fleet-wide promotion. Generation 1 is
	// the boot deployment.
	generation atomic.Uint64

	tasksMu sync.Mutex
	tasks   map[TaskID]*Task
	nextTID TaskID
}

// New returns a kernel at time zero, on deployment generation 1.
func New() *Kernel {
	k := &Kernel{}
	k.queue = make(eventQueue, 0, initialQueueCap)
	k.tasks = make(map[TaskID]*Task)
	k.nextTID = 1
	k.sites.Store(new([]*hookSite))
	k.generation.Store(1)
	return k
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return Time(k.now.Load()) }

// Generation returns the active deployment generation (1 at boot).
func (k *Kernel) Generation() uint64 { return k.generation.Load() }

// SetGeneration records a fleet-wide promotion to generation g. The
// rollout control plane calls this when a canary goes fleet-wide;
// rollback never rewinds it (the last-good generation simply stays
// current). Safe from any goroutine.
func (k *Kernel) SetGeneration(g uint64) { k.generation.Store(g) }

// At schedules fn to run at absolute time t. Times in the past run at
// the current time (immediately on the next Step).
func (k *Kernel) At(t Time, fn func()) {
	if now := k.Now(); t < now {
		t = now
	}
	k.qmu.Lock()
	k.seq++
	k.queue.push(event{at: t, seq: k.seq, fn: fn})
	k.qmu.Unlock()
}

// After schedules fn to run d nanoseconds from now.
func (k *Kernel) After(d Time, fn func()) { k.At(k.Now()+d, fn) }

// Timer is a periodic schedule created by Every. Safe to stop from any
// goroutine.
type Timer struct {
	stopped atomic.Bool
}

// Stop cancels future firings. Safe to call multiple times.
func (t *Timer) Stop() { t.stopped.Store(true) }

// Every schedules fn at start, start+interval, ... until stop (exclusive;
// stop <= 0 means forever). It mirrors the paper's
// TIMER(start_time, interval, stop_time) trigger.
func (k *Kernel) Every(start, interval, stop Time, fn func(now Time)) *Timer {
	if interval <= 0 {
		panic("kernel: timer interval must be positive")
	}
	t := &Timer{}
	var tick func()
	next := start
	tick = func() {
		if t.stopped.Load() || (stop > 0 && k.Now() >= stop) {
			return
		}
		fn(k.Now())
		next += interval
		if stop > 0 && next >= stop {
			return
		}
		k.At(next, tick)
	}
	k.At(start, tick)
	return t
}

// popDue removes the earliest event due at or before through and
// advances the clock to its time, under one lock acquisition. ok is
// false when nothing is due.
//
//guardrails:hotpath
func (k *Kernel) popDue(through Time) (fn func(), ok bool) {
	k.qmu.Lock()
	if len(k.queue) == 0 || k.queue[0].at > through {
		k.qmu.Unlock()
		return nil, false
	}
	e := k.queue.pop()
	k.now.Store(int64(e.at))
	k.qmu.Unlock()
	return e.fn, true
}

// Step executes the next pending event, advancing the clock. It returns
// false when the queue is empty.
func (k *Kernel) Step() bool {
	fn, ok := k.popDue(math.MaxInt64)
	if ok {
		fn()
	}
	return ok
}

// RunUntil executes events until the queue is empty or the next event is
// at or after deadline; the clock finishes at min(deadline, last event).
// It returns the number of events executed.
func (k *Kernel) RunUntil(deadline Time) int {
	if deadline <= 0 {
		return 0 // no event is ever scheduled before time 0
	}
	n := 0
	for {
		fn, ok := k.popDue(deadline - 1)
		if !ok {
			break
		}
		fn()
		n++
	}
	if k.Now() < deadline {
		k.now.Store(int64(deadline))
	}
	return n
}

// Run executes events until the queue is empty and returns the count.
// Callers using unbounded timers must use RunUntil instead.
func (k *Kernel) Run() int {
	n := 0
	for k.Step() {
		n++
	}
	return n
}

// Pending returns the number of queued events.
func (k *Kernel) Pending() int {
	k.qmu.Lock()
	defer k.qmu.Unlock()
	return len(k.queue)
}

// siteFor returns the dispatch state for site, creating it on first
// use. The returned *hookSite is stable for the kernel's lifetime.
//
//guardrails:hotpath
func (k *Kernel) siteFor(site string) *hookSite {
	if hs := k.lookup(site); hs != nil {
		return hs
	}
	return k.addSite(site)
}

// lookup scans the site table for site, or returns nil. The scan is
// linear in the number of sites, which is small — each instrumented
// subsystem defines one or two — and comparing a short name is cheaper
// than hashing it: lengths first, then the bytes.
//
//guardrails:hotpath
func (k *Kernel) lookup(site string) *hookSite {
	for _, hs := range *k.sites.Load() {
		if len(hs.name) == len(site) && hs.name == site {
			return hs
		}
	}
	return nil
}

// addSite creates site's dispatch state under hmu, with a copy-on-write
// swap of the site table, unless a concurrent call already has.
func (k *Kernel) addSite(site string) *hookSite {
	k.hmu.Lock()
	defer k.hmu.Unlock()
	if hs := k.lookup(site); hs != nil {
		return hs
	}
	hs := &hookSite{name: site}
	hs.hooks.Store(&hookList{})
	old := *k.sites.Load()
	next := make([]*hookSite, len(old)+1)
	copy(next, old)
	next[len(old)] = hs
	k.sites.Store(&next)
	return hs
}

// Attach registers fn on a hook site and returns a detach function.
// Sites are created on first use; attaching before any Fire is valid.
func (k *Kernel) Attach(site string, fn HookFn) (detach func()) {
	return k.attach(site, hookSlot{fn: fn})
}

// AttachScalar registers fn, which sees only a fire's first argument,
// on a hook site and returns a detach function. A site whose hooks are
// all scalar dispatches without claiming the kernel's argument buffer.
// Hooks of both kinds on one site run in attach order.
func (k *Kernel) AttachScalar(site string, fn ScalarHookFn) (detach func()) {
	return k.attach(site, hookSlot{scalar: fn})
}

func (k *Kernel) attach(site string, slot hookSlot) (detach func()) {
	hs := k.siteFor(site)
	k.hmu.Lock()
	k.hookID++
	id := k.hookID
	slot.id = id
	old := hs.hooks.Load().slots
	grown := make([]hookSlot, len(old)+1)
	copy(grown, old)
	grown[len(old)] = slot
	hs.hooks.Store(newHookList(grown))
	k.hmu.Unlock()
	return func() {
		k.hmu.Lock()
		defer k.hmu.Unlock()
		slots := hs.hooks.Load().slots
		for i, s := range slots {
			if s.id == id {
				next := make([]hookSlot, 0, len(slots)-1)
				next = append(next, slots[:i]...)
				next = append(next, slots[i+1:]...)
				hs.hooks.Store(newHookList(next))
				return
			}
		}
	}
}

// SetHookPanicHandler installs h as the recovery point for panics raised
// by hook callbacks: with a handler set, a panicking monitor or
// instrumentation hook is contained (recovered, counted, reported to h)
// instead of tearing down the whole simulated kernel. With no handler
// (the default) panics propagate as before.
func (k *Kernel) SetHookPanicHandler(h PanicHandler) {
	k.panicGuard.Store(h)
}

// HookPanics returns how many hook panics the panic handler absorbed.
func (k *Kernel) HookPanics() uint64 { return k.hookPanics.Load() }

// SetTelemetry attaches (or with nil, detaches) a telemetry sink.
// Every subsequent Fire counts the fire and records a hook-fire event.
// One fire in 16 per site also charges the wall-clock cost of
// dispatching the site's callbacks — the real overhead the attached
// monitors add — to the site's hook_dispatch_ns histogram, whose count
// is therefore the number of sampled fires (hook_fires_total stays
// exact). Each site resolves that histogram once per attached sink.
// Safe to call while the kernel runs.
func (k *Kernel) SetTelemetry(s *telemetry.Sink) { k.tsink.Store(s) }

// Telemetry returns the attached sink, or nil.
func (k *Kernel) Telemetry() *telemetry.Sink { return k.tsink.Load() }

// Fire invokes all hooks attached to site, in attach order. Subsystem
// simulators call this at their instrumentation points — the analogue of
// a kprobe firing. The dispatch path is lock-free: the site entry (found
// by a scan of the site table) and its hook list are read with atomic
// loads, so concurrent shards firing different (or the same) sites
// never serialize on a mutex.
//
// Scalar hooks (AttachScalar) are passed the first argument by value.
// Slice hooks see the arguments in the kernel's own buffer, which the
// stepping goroutine claims with one CAS per dispatch, so the args
// slice does not escape and a Fire with up to 4 arguments allocates
// nothing. When the buffer is taken — a hook that fires another site,
// or a Fire from a goroutine other than the one stepping the kernel —
// the arguments are copied to the heap instead. Either way hooks must
// not retain the slice. Only a site with at least one slice hook claims
// the buffer, so a fire at a site whose hooks are all scalar, such as a
// monitor's, costs one fenced atomic — the site's fire counter — plus
// whatever its hooks do. A monitor evaluation adds its claim and
// release, and two more around each call that leaves the runtime (a
// SAVE, a REPORT or ACTION, a fault, OnRecover, a published result, a
// fault injector's hook), where it yields its counters to Stats
// readers; an evaluation that holds with no actions and no injector
// makes none. A site with no hooks only counts
// the fire.
//
// With a telemetry sink attached, every fire is counted and recorded
// in the flight ring; the dispatch is timed on the wall clock only on
// every 16th fire of the site (see SetTelemetry), so most fires read no
// clock and no fire looks a histogram up by name.
//
//guardrails:hotpath
func (k *Kernel) Fire(site string, args ...float64) {
	hs := k.siteFor(site)
	fire := hs.fires.Add(1)
	hooks := hs.hooks.Load()
	sink := k.tsink.Load()
	timed := false
	var wallStart time.Time
	if sink != nil {
		arg := 0.0
		if len(args) > 0 {
			arg = args[0]
		}
		sink.HookFire(int64(k.Now()), site, arg)
		if timed = fire%dispatchSampleEvery == 0; timed {
			wallStart = time.Now() //guardrails:coldpath 1 fire in 16, and only with a telemetry sink attached
		}
	}
	if len(hooks.slots) > 0 {
		k.dispatch(hooks, site, args)
	}
	if timed {
		hs.dispatchHist(sink).Observe(float64(time.Since(wallStart)))
	}
}

// dispatch runs a site's hooks. Slice hooks get a copy of args: the
// kernel's buffer when its CAS succeeds, else a heap copy. A list of
// scalar hooks alone touches neither.
//
//guardrails:hotpath
func (k *Kernel) dispatch(hooks *hookList, site string, args []float64) {
	arg0 := 0.0
	if len(args) > 0 {
		arg0 = args[0]
	}
	switch {
	case !hooks.anySlice:
		k.runHooks(hooks.slots, site, nil, arg0)
	case len(args) <= maxFireArgs && k.argBusy.CompareAndSwap(false, true):
		k.runClaimed(hooks.slots, site, args, arg0)
	default:
		buf := make([]float64, len(args)) //guardrails:coldpath buffer taken by a nested or foreign-goroutine fire, or more than maxFireArgs arguments
		copy(buf, args)
		k.runHooks(hooks.slots, site, buf, arg0)
	}
}

// runClaimed runs the hooks on a copy of args in the kernel's argument
// buffer, which the caller has claimed, and releases the buffer —
// also when a hook panics.
func (k *Kernel) runClaimed(slots []hookSlot, site string, args []float64, arg0 float64) {
	defer k.argBusy.Store(false)
	buf := k.argBuf[:len(args)]
	copy(buf, args)
	k.runHooks(slots, site, buf, arg0)
}

// runHooks calls each hook with the argument form it takes, under the
// panic guard when one is installed.
func (k *Kernel) runHooks(slots []hookSlot, site string, args []float64, arg0 float64) {
	var guard PanicHandler
	if h, ok := k.panicGuard.Load().(PanicHandler); ok && h != nil {
		guard = h
	}
	for i := range slots {
		if guard == nil {
			slots[i].call(k, site, args, arg0)
			continue
		}
		k.fireGuarded(&slots[i], site, args, arg0, guard)
	}
}

// fireGuarded runs one hook under the panic guard.
func (k *Kernel) fireGuarded(s *hookSlot, site string, args []float64, arg0 float64, guard PanicHandler) {
	defer func() {
		if r := recover(); r != nil {
			k.hookPanics.Add(1)
			guard(site, r)
		}
	}()
	s.call(k, site, args, arg0)
}

// FireCount returns how many times site has fired.
func (k *Kernel) FireCount(site string) uint64 {
	if hs := k.lookup(site); hs != nil {
		return hs.fires.Load()
	}
	return 0
}

// Sites returns all sites that have hooks attached or have fired, sorted.
func (k *Kernel) Sites() []string {
	table := *k.sites.Load()
	out := make([]string, len(table))
	for i, hs := range table {
		out[i] = hs.name
	}
	sort.Strings(out)
	return out
}
