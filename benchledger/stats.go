package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// clockEpoch anchors mono. time.Since reads only the monotonic clock,
// which costs about half of a time.Now on a paravirtual clock source.
var clockEpoch = time.Now()

// mono returns monotonic nanoseconds since process start.
func mono() int64 { return int64(time.Since(clockEpoch)) }

// clockCost is the median cost of one mono read, measured back to back.
// A span bracketing another span's reads contains that read's cost,
// which the traced run subtracts.
func clockCost() float64 {
	d := make([]float64, 0, 4096)
	for i := 0; i < 4096; i++ {
		a := mono()
		b := mono()
		d = append(d, float64(b-a))
	}
	return quantile(d, 0.5)
}

// coldHeap collects the heap and returns its memory to the OS, so that
// each set-up repetition pays for its memory as a fresh process does.
// Without it, whether a repetition reuses pages a collection freed
// varies from run to run and set-up times spread by a factor of two.
func coldHeap() { debug.FreeOSMemory() }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the "inclusive" method of Python's statistics.quantiles
// and NumPy's default). xs is sorted in place. An empty sample gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// sampler keeps a bounded, evenly spaced subsample of a stream: it
// records every stride-th value and, when full, drops every other kept
// value and doubles the stride. Memory is fixed at construction, so a
// faster program does not make the benchmark allocate more.
type sampler struct {
	buf    []float64
	stride uint64
	skip   uint64
}

func newSampler(capacity int) *sampler {
	return &sampler{buf: make([]float64, 0, capacity), stride: 1}
}

func (s *sampler) add(v float64) {
	if s.skip > 0 {
		s.skip--
		return
	}
	if len(s.buf) == cap(s.buf) {
		n := 0
		for i := 0; i < len(s.buf); i += 2 {
			s.buf[n] = s.buf[i]
			n++
		}
		s.buf = s.buf[:n]
		s.stride *= 2
	}
	s.buf = append(s.buf, v)
	s.skip = s.stride - 1
}

// values returns a copy of the kept sample.
func (s *sampler) values() []float64 { return append([]float64(nil), s.buf...) }

// heapPeak tracks the largest live heap (as marked by the most recent
// GC) seen at the points the workload calls sample: the memory the
// workload holds, without the garbage between collections, whose amount
// depends on when the GC got to run. runtime/metrics reads without
// stopping the world, so sampling is cheap enough for the measured loop.
type heapPeak struct {
	s    []metrics.Sample
	peak uint64
}

func newHeapPeak() *heapPeak {
	return &heapPeak{s: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (h *heapPeak) sample() {
	metrics.Read(h.s)
	if v := h.s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

func (h *heapPeak) mb() float64 { return float64(h.peak) / (1 << 20) }

// allocMeter reads the Go runtime's cumulative heap allocation count
// (small and tiny objects) without stopping the world, so a workload can
// attribute allocations to one part of its loop.
type allocMeter struct{ s []metrics.Sample }

func newAllocMeter() *allocMeter {
	return &allocMeter{s: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}}
}

func (a *allocMeter) read() uint64 {
	metrics.Read(a.s)
	return a.s[0].Value.Uint64() + a.s[1].Value.Uint64()
}

// gcCounters is the Go runtime's GC accounting at one instant.
type gcCounters struct{ cycles, pauseNs uint64 }

func readGC() gcCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcCounters{cycles: uint64(ms.NumGC), pauseNs: ms.PauseTotalNs}
}

func (a gcCounters) sub(b gcCounters) gcCounters {
	return gcCounters{cycles: a.cycles - b.cycles, pauseNs: a.pauseNs - b.pauseNs}
}

// stamp describes the machine a run measured, so host noise and
// hardware differences sit next to the numbers.
type stamp struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	StealShare float64 `json:"host_steal_share"`
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// cpuTimes returns the aggregate steal and total jiffies from the "cpu"
// line of /proc/stat (ok=false where it is unavailable).
func cpuTimes() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealMeter measures the host's steal share of CPU time over a span.
type stealMeter struct {
	steal, total uint64
	ok           bool
}

func startSteal() stealMeter {
	s, t, ok := cpuTimes()
	return stealMeter{steal: s, total: t, ok: ok}
}

// share returns stolen jiffies over all jiffies since start (0 when
// /proc/stat is unreadable or no time passed).
func (m stealMeter) share() float64 {
	s, t, ok := cpuTimes()
	if !ok || !m.ok || t <= m.total {
		return 0
	}
	return float64(s-m.steal) / float64(t-m.total)
}

func newStamp(steal float64) stamp {
	return stamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		StealShare: steal,
	}
}
