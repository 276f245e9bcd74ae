package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// span is one timed call the benchmark made into a layer. Spans live in
// memory until the run ends; parent indexes the same recorder's spans
// (-1 for a root) and req groups the spans of one request (a timer
// tick, an I/O step, a corpus item).
type span struct {
	name       string
	start, end int64
	parent     int32
	req        uint64
}

// spanRec is one goroutine's span buffer. It keeps the spans of 1 in
// every requests, and its capacity is fixed at construction; spans past
// it are counted, not kept, so recording never allocates on the
// measured path.
type spanRec struct {
	tid     int
	every   uint64
	roots   uint64
	spans   []span
	dropped uint64
}

func newSpanRec(tid, capacity int, every uint64) *spanRec {
	return &spanRec{tid: tid, every: every, spans: make([]span, 0, capacity)}
}

// root starts a request's span tree and returns its index, or -1 when
// this request is not kept.
func (r *spanRec) root(name string, start, end int64, req uint64) int32 {
	r.roots++
	if r.roots%r.every != 0 {
		return -1
	}
	return r.push(span{name: name, start: start, end: end, parent: -1, req: req})
}

// child records a span under parent (skipped when the parent was not
// kept) and returns its index.
func (r *spanRec) child(name string, start, end int64, parent int32) int32 {
	if parent < 0 {
		return -1
	}
	return r.push(span{name: name, start: start, end: end, parent: parent, req: r.spans[parent].req})
}

// finish sets the end of a kept span.
func (r *spanRec) finish(i int32, end int64) {
	if i >= 0 {
		r.spans[i].end = end
	}
}

func (r *spanRec) push(s span) int32 {
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return -1
	}
	r.spans = append(r.spans, s)
	return int32(len(r.spans) - 1)
}

func (r *spanRec) reset() {
	r.spans, r.roots, r.dropped = r.spans[:0], 0, 0
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which chrome://tracing and Perfetto load.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes every recorder's spans as one trace file, with
// the machine stamp as its metadata, and returns how many spans full
// buffers dropped. Timestamps are microseconds since process start.
func writeChromeTrace(path string, st stamp, recs ...*spanRec) (dropped uint64, err error) {
	var evs []chromeEvent
	for _, r := range recs {
		dropped += r.dropped
		for _, s := range r.spans {
			args := map[string]any{"req": s.req}
			if s.parent >= 0 {
				args["parent"] = r.spans[s.parent].name
			}
			evs = append(evs, chromeEvent{
				Name: s.name, Ph: "X", PID: 1, TID: r.tid,
				TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Args: args,
			})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
	return dropped, writeFileWith(path, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns", "metadata": st})
	})
}

// writeFileWith creates path (and its directory) and fills it with fn,
// reporting the first error of fn, Flush or Close.
func writeFileWith(path string, fn func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = fn(bw)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ledgerRow is one per-layer metric with the base its ratio is taken
// against (a count divided by fires, I/O steps or verdicts).
type ledgerRow struct {
	name  string
	value float64
	unit  string
	note  string
}

// ledger is the traced run's per-layer table.
type ledger struct {
	rows []ledgerRow
	base float64 // fires, I/O steps or verdicts
	unit string  // what base counts
}

func (l *ledger) set(name string, value float64, note string) {
	l.rows = append(l.rows, ledgerRow{name: name, value: value, unit: perLayerUnit(name), note: note})
}

// count records a count and its ratio to the ledger's base.
func (l *ledger) count(name string, n float64) {
	note := ""
	if l.base > 0 {
		note = fmt.Sprintf("%.4g per %s (base %.0f %ss)", n/l.base, l.unit, l.base, l.unit)
	}
	l.set(name, n, note)
}

// render prints the table: every per-layer metric, its unit, and the
// ratio or derivation note.
func (l *ledger) render(w io.Writer, workload string) {
	fmt.Fprintf(w, "per-layer ledger, workload %s (traced; base %.0f %ss)\n", workload, l.base, l.unit)
	byName := map[string]ledgerRow{}
	for _, r := range l.rows {
		byName[r.name] = r
	}
	for _, m := range perLayer {
		r, ok := byName[m.name]
		if !ok {
			fmt.Fprintf(w, "  %-28s %14s %-6s %s\n", m.name, "0", m.unit, "layer idle in this workload")
			continue
		}
		fmt.Fprintf(w, "  %-28s %14.6g %-6s %s\n", r.name, r.value, r.unit, r.note)
	}
}

// values returns the metrics map for the result line; per-layer metrics
// the workload does not exercise read 0.
func (l *ledger) values() map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = 0
	}
	for _, r := range l.rows {
		out[r.name] = r.value
	}
	return out
}

func perLayerUnit(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	panic("benchledger: unknown per-layer metric " + name)
}

// writeLedger writes the rendered table to path, after the machine
// stamp line.
func writeLedger(path, workload string, l *ledger, stampLine string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "stamp %s\n", stampLine)
	l.render(&b, workload)
	return writeFileWith(path, func(w io.Writer) error {
		_, err := io.WriteString(w, b.String())
		return err
	})
}
