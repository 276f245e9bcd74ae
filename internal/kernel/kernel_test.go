package kernel

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	k := New()
	var order []int
	k.At(30, func() { order = append(order, 3) })
	k.At(10, func() { order = append(order, 1) })
	k.At(20, func() { order = append(order, 2) })
	if n := k.Run(); n != 3 {
		t.Fatalf("ran %d events, want 3", n)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if k.Now() != 30 {
		t.Errorf("final time = %v, want 30", k.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	k := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		k.At(100, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestPastEventsRunNow(t *testing.T) {
	k := New()
	k.At(100, func() {})
	k.Run()
	ran := false
	k.At(50, func() { ran = true }) // in the past
	k.Step()
	if !ran {
		t.Fatal("past event did not run")
	}
	if k.Now() != 100 {
		t.Errorf("clock went backwards: %v", k.Now())
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	k := New()
	var times []Time
	k.After(10, func() {
		times = append(times, k.Now())
		k.After(5, func() { times = append(times, k.Now()) })
	})
	k.Run()
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Errorf("times = %v", times)
	}
}

func TestRunUntil(t *testing.T) {
	k := New()
	count := 0
	k.At(10, func() { count++ })
	k.At(20, func() { count++ })
	k.At(30, func() { count++ })
	n := k.RunUntil(25)
	if n != 2 || count != 2 {
		t.Errorf("ran %d/%d events", n, count)
	}
	if k.Now() != 25 {
		t.Errorf("clock = %v, want 25", k.Now())
	}
	if k.Pending() != 1 {
		t.Errorf("pending = %d", k.Pending())
	}
	// Event exactly at the deadline must NOT run (deadline exclusive).
	k.At(40, func() { count++ })
	k.RunUntil(30)
	if count != 2 {
		t.Error("event at deadline ran")
	}
}

// TestRunUntilAndStepAtTimeBounds: RunUntil with a deadline at or
// before time 0 runs nothing, RunUntil(1) runs an event at time 0, and
// Step runs an event scheduled at the largest Time.
func TestRunUntilAndStepAtTimeBounds(t *testing.T) {
	k := New()
	var ran []Time
	k.At(0, func() { ran = append(ran, k.Now()) })
	k.At(math.MaxInt64, func() { ran = append(ran, k.Now()) })
	if n := k.RunUntil(0); n != 0 || len(ran) != 0 {
		t.Fatalf("RunUntil(0) ran %d events", n)
	}
	if n := k.RunUntil(math.MinInt64); n != 0 || k.Now() != 0 {
		t.Fatalf("RunUntil(MinInt64) ran %d events, clock %d", n, k.Now())
	}
	if n := k.RunUntil(1); n != 1 || k.Now() != 1 {
		t.Fatalf("RunUntil(1) ran %d events, clock %d", n, k.Now())
	}
	if !k.Step() || k.Now() != math.MaxInt64 || k.Step() {
		t.Fatalf("Step did not run exactly the event at the largest time: ran %v", ran)
	}
	if len(ran) != 2 || ran[0] != 0 || ran[1] != math.MaxInt64 {
		t.Fatalf("ran at %v", ran)
	}
}

func TestTimerPeriodic(t *testing.T) {
	k := New()
	var fires []Time
	k.Every(100, 50, 300, func(now Time) { fires = append(fires, now) })
	k.Run()
	want := []Time{100, 150, 200, 250}
	if len(fires) != len(want) {
		t.Fatalf("fires = %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fires = %v, want %v", fires, want)
		}
	}
}

func TestTimerStop(t *testing.T) {
	k := New()
	count := 0
	var tm *Timer
	tm = k.Every(0, 10, 0, func(now Time) {
		count++
		if count == 3 {
			tm.Stop()
		}
	})
	k.RunUntil(1000)
	if count != 3 {
		t.Errorf("fired %d times after stop, want 3", count)
	}
	tm.Stop() // idempotent
}

func TestTimerForever(t *testing.T) {
	k := New()
	count := 0
	k.Every(0, 100, 0, func(Time) { count++ })
	k.RunUntil(1000)
	if count != 10 { // t=0..900
		t.Errorf("count = %d, want 10", count)
	}
}

func TestTimerBadInterval(t *testing.T) {
	k := New()
	defer func() {
		if recover() == nil {
			t.Error("zero interval should panic")
		}
	}()
	k.Every(0, 0, 0, func(Time) {})
}

func TestHooksFireInOrderAndDetach(t *testing.T) {
	k := New()
	var got []string
	d1 := k.Attach("io_submit", func(_ *Kernel, site string, args []float64) {
		got = append(got, "a")
		if site != "io_submit" || len(args) != 2 || args[0] != 1 || args[1] != 2 {
			t.Errorf("hook saw site=%q args=%v", site, args)
		}
	})
	k.Attach("io_submit", func(_ *Kernel, _ string, _ []float64) { got = append(got, "b") })
	k.Fire("io_submit", 1, 2)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("got = %v", got)
	}
	d1()
	k.Fire("io_submit", 1, 2)
	if len(got) != 3 || got[2] != "b" {
		t.Errorf("after detach got = %v", got)
	}
	d1() // double-detach is a no-op
	if k.FireCount("io_submit") != 2 {
		t.Errorf("fire count = %d", k.FireCount("io_submit"))
	}
	if k.FireCount("never") != 0 {
		t.Error("unknown site count should be 0")
	}
}

func TestFireUnattachedSite(t *testing.T) {
	k := New()
	k.Fire("lonely", 3.14) // must not panic
	if k.FireCount("lonely") != 1 {
		t.Error("fire count not recorded")
	}
	sites := k.Sites()
	if len(sites) != 1 || sites[0] != "lonely" {
		t.Errorf("sites = %v", sites)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{2 * Microsecond, "2.000us"},
		{3 * Millisecond, "3.000ms"},
		{Second + Second/2, "1.500s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTaskLifecycle(t *testing.T) {
	k := New()
	a, err := k.CreateTask("web", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := k.CreateTask("batch", 10)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == b.ID {
		t.Fatal("duplicate task IDs")
	}
	if got := k.Task(a.ID); got != a {
		t.Error("Task lookup failed")
	}
	if k.Task(TaskID(999)) != nil {
		t.Error("unknown task should be nil")
	}
	tasks := k.Tasks()
	if len(tasks) != 2 || tasks[0].ID > tasks[1].ID {
		t.Errorf("Tasks() = %v", tasks)
	}
	if err := k.SetPriority(b.ID, 19); err != nil {
		t.Fatal(err)
	}
	if b.Priority != 19 {
		t.Error("priority not applied")
	}
	if err := k.SetPriority(b.ID, 99); err == nil {
		t.Error("out-of-range priority should error")
	}
	if err := k.SetPriority(TaskID(999), 0); err == nil {
		t.Error("unknown task should error")
	}
	b.MemoryBytes = 4096
	if err := k.KillTask(b.ID); err != nil {
		t.Fatal(err)
	}
	if b.State != TaskKilled || b.MemoryBytes != 0 {
		t.Error("kill did not release resources")
	}
	if err := k.SetPriority(b.ID, 0); err == nil {
		t.Error("setting priority on killed task should error")
	}
	if err := k.KillTask(TaskID(999)); err == nil {
		t.Error("killing unknown task should error")
	}
}

func TestCreateTaskValidation(t *testing.T) {
	k := New()
	if _, err := k.CreateTask("bad", -21); err == nil {
		t.Error("priority below min should error")
	}
	if _, err := k.CreateTask("bad", 20); err == nil {
		t.Error("priority above max should error")
	}
}

func TestTaskStateString(t *testing.T) {
	if TaskReady.String() != "ready" || TaskRunning.String() != "running" ||
		TaskBlocked.String() != "blocked" || TaskKilled.String() != "killed" {
		t.Error("state names wrong")
	}
}

// TestHeapOrderMatchesTimeThenSchedule: the value heap runs events in
// (time, schedule order), including events scheduled while the loop
// runs, across a randomized mix of duplicate and distinct times.
func TestHeapOrderMatchesTimeThenSchedule(t *testing.T) {
	k := New()
	rng := rand.New(rand.NewSource(1))
	type ev struct {
		at  Time
		seq int
	}
	var want, got []ev
	seq := 0
	var schedule func(at Time)
	schedule = func(at Time) {
		if at < k.Now() {
			at = k.Now()
		}
		e := ev{at, seq}
		seq++
		want = append(want, e)
		k.At(at, func() {
			got = append(got, e)
			if rng.Intn(4) == 0 {
				schedule(k.Now() + Time(rng.Intn(50)))
			}
		})
	}
	for i := 0; i < 2000; i++ {
		schedule(Time(rng.Intn(500)))
	}
	k.Run()
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d ran as %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestFireArgsUnderConcurrentAndReentrantFires: every hook sees exactly
// the arguments its own Fire passed, whether the Fire owned the kernel's
// argument buffer or fell back to a heap copy because another goroutine
// or an enclosing Fire held it. A scalar hook, attached both beside the
// slice hooks on "outer" and alone on "scalar", sees each fire's first
// argument; the scalar-only site never claims or copies into a buffer.
func TestFireArgsUnderConcurrentAndReentrantFires(t *testing.T) {
	k := New()
	var torn, claimed atomic.Int64
	check := func(_ *Kernel, _ string, args []float64) {
		if len(args) != 2 || args[1] != -args[0] {
			torn.Add(1)
		}
	}
	k.Attach("outer", check)
	k.Attach("outer", func(k *Kernel, _ string, args []float64) {
		x := args[0]
		k.Fire("inner", x+0.5, -(x + 0.5))
		if args[0] != x || args[1] != -x {
			torn.Add(1)
		}
	})
	k.Attach("inner", check)
	probe := func(k *Kernel, _ string, arg0 float64) {
		if arg0 != math.Trunc(arg0) {
			torn.Add(1) // an inner fire's argument leaked in
		}
		if k.argBusy.Load() {
			claimed.Add(1)
		}
	}
	k.AttachScalar("outer", probe)
	k.AttachScalar("scalar", probe)

	// More arguments than the buffer holds: a slice hook would need a
	// heap copy, a scalar-only site needs nothing.
	if n := testing.AllocsPerRun(100, func() { k.Fire("scalar", 1, -1, 1, -1, 1) }); n != 0 {
		t.Fatalf("Fire at a scalar-only site allocated %.1f times", n)
	}
	if n := claimed.Load(); n != 0 {
		t.Fatalf("a scalar-only site claimed the argument buffer on %d fires", n)
	}

	const goroutines, fires = 4, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < fires; i++ {
				x := float64(g*fires + i)
				k.Fire("outer", x, -x)
				k.Fire("scalar", x)
			}
		}(g)
	}
	wg.Wait()
	if n := torn.Load(); n != 0 {
		t.Fatalf("%d hook calls saw another fire's arguments", n)
	}
	if got := k.FireCount("inner"); got != goroutines*fires {
		t.Fatalf("inner fired %d times, want %d", got, goroutines*fires)
	}
}

// TestSiteLookupMatchesByName: a site is found by its name, not by the
// string that named it first — fires with the same name built at run
// time or sliced from a longer literal land on the same site, and a
// name of the same length that differs does not.
func TestSiteLookupMatchesByName(t *testing.T) {
	k := New()
	hooked := 0
	k.AttachScalar("io_done", func(*Kernel, string, float64) { hooked++ })
	lit := "io_done"
	built := string([]byte(lit))
	sliced := "io_done_late"[:len(lit)]
	for _, s := range []string{lit, built, sliced, lit, built, sliced} {
		k.Fire(s)
	}
	k.Fire("io_dome")
	if hooked != 6 || k.FireCount(built) != 6 {
		t.Fatalf("io_done hooked %d times, counted %d fires, want 6 and 6", hooked, k.FireCount(built))
	}
	if got := k.FireCount("io_dome"); got != 1 {
		t.Fatalf("io_dome counted %d fires, want 1", got)
	}
	if got := k.Sites(); len(got) != 2 || got[0] != "io_dome" || got[1] != "io_done" {
		t.Fatalf("Sites() = %v, want [io_dome io_done]", got)
	}
}
