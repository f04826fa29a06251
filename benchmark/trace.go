package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ppar/pp"
)

// Tracks a span can be recorded on. The master track is written by exactly
// one goroutine at a time (the master line of execution), the others by
// whoever calls the store or submits the job.
const (
	trackMaster = iota
	trackStore
	trackClient
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the recorder's epoch; parent indexes the same recorder's span list
// (-1 = the repetition itself).
type span struct {
	name       string
	track      int
	start, end int64
	parent     int
}

func (s span) dur() int64 { return s.end - s.start }

// spSample is one safe-point call as the master line saw it.
type spSample struct {
	start, end time.Time
	sp         uint64 // the master's safe-point count after the call
	replay     bool   // the call was consumed by replay, not executed
}

// runRec collects what one engine run (or one fleet batch) exposes to the
// outside: safe-point timings always, and every master-line and store span
// when full is set. One recorder is shared by all application instances of
// the run; only the master line writes the master-track state, so that part
// needs no lock.
type runRec struct {
	full  bool
	epoch time.Time

	// master-track state (single writer)
	stack      []int
	sps        []spSample
	spOpen     time.Time   // entry time of a safe-point call that has not returned
	migStart   time.Time   // entry time of the safe-point call a migration unwound
	replayEnds []time.Time // instants the master line left a replay

	// openSP is 1 + the index of the master's open safe-point span, so that
	// store calls made on the master line (synchronous saves) can name it as
	// their parent.
	openSP atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRunRec(full bool) *runRec { return &runRec{full: full, epoch: time.Now()} }

func (r *runRec) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// masterLine returns r when ctx is the master line of execution — thread 0
// of rank 0 — and nil otherwise, so instrumented code reads
// `if m := rec.masterLine(ctx); m != nil`.
func (r *runRec) masterLine(ctx *pp.Ctx) *runRec {
	if r == nil || !ctx.IsMasterRank() || !ctx.IsMasterThread() {
		return nil
	}
	return r
}

// begin opens a master-track span; it is a no-op (returning -1) unless the
// recorder keeps full spans.
func (r *runRec) begin(name string) int {
	if r == nil || !r.full {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.mu.Lock()
	idx := len(r.spans)
	r.spans = append(r.spans, span{name: name, track: trackMaster, parent: parent, start: r.since(time.Now())})
	r.mu.Unlock()
	r.stack = append(r.stack, idx)
	return idx
}

func (r *runRec) end(idx int) {
	if idx < 0 {
		return
	}
	now := r.since(time.Now())
	r.mu.Lock()
	r.spans[idx].end = now
	r.mu.Unlock()
	// A migration unwinds the master line through open spans; pop down to idx.
	for n := len(r.stack); n > 0 && r.stack[n-1] >= idx; n = len(r.stack) {
		r.stack = r.stack[:n-1]
	}
}

// call runs ctx.Call(name, fn) inside a span.
func (r *runRec) call(ctx *pp.Ctx, name string, fn func(*pp.Ctx)) {
	if r == nil || !r.full {
		ctx.Call(name, fn)
		return
	}
	i := r.begin("call:" + name)
	ctx.Call(name, fn)
	r.end(i)
}

func noop(*pp.Ctx) {}

// safePoint runs the advised no-op call that carries the safe point and
// records how long the master line was held inside it.
func (r *runRec) safePoint(ctx *pp.Ctx, name string) {
	if r == nil {
		ctx.Call(name, noop)
		return
	}
	replay := ctx.Replaying()
	i := r.begin("sp:" + name)
	if i >= 0 {
		r.openSP.Store(int64(i) + 1)
	}
	t := time.Now()
	r.spOpen = t
	ctx.Call(name, noop)
	e := time.Now()
	r.spOpen = time.Time{}
	if i >= 0 {
		r.openSP.Store(0)
		r.end(i)
	}
	r.sps = append(r.sps, spSample{start: t, end: e, sp: ctx.SafePointCount(), replay: replay})
	if replay && !ctx.Replaying() {
		r.replayEnds = append(r.replayEnds, e)
	}
}

// enterMain is called by the master line at the top of App.Main. A
// safe-point call still open at that moment never returned: a live migration
// unwound it and relaunched the program, so its entry time is where the
// migration began.
func (r *runRec) enterMain() {
	if r != nil && !r.spOpen.IsZero() {
		r.migStart = r.spOpen
		r.spOpen = time.Time{}
		if n := len(r.stack); n > 0 {
			// Close what the unwind left open so self times stay meaningful.
			now := r.since(time.Now())
			r.mu.Lock()
			for _, idx := range r.stack {
				r.spans[idx].end = now
			}
			r.mu.Unlock()
			r.stack = r.stack[:0]
			r.openSP.Store(0)
		}
	}
}

// offTrack records a span from any goroutine (store calls, client calls).
// onMaster says the caller's work blocks the master line when a safe-point
// span is open, which makes that span the parent.
func (r *runRec) offTrack(name string, track int, start, end time.Time, onMaster bool) {
	if r == nil || !r.full {
		return
	}
	parent := -1
	if onMaster {
		parent = int(r.openSP.Load()) - 1
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, track: track, parent: parent, start: r.since(start), end: r.since(end)})
	r.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of that interval
// its child spans cover (children may overlap each other).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int, len(spans)/2)
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
		ks := kids[i]
		if len(ks) == 0 {
			continue
		}
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].start < spans[ks[b]].start })
		covered, edge := int64(0), s.start
		for _, k := range ks {
			lo, hi := max(spans[k].start, edge), min(spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// chromeTrace accumulates spans of several repetitions and workloads and
// writes them as Chrome trace-event JSON (chrome://tracing, Perfetto).
type chromeTrace struct {
	events []chromeEvent
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// add appends one repetition's spans. base offsets the recorder's epoch onto
// the trace's common time line; pid separates workloads.
func (c *chromeTrace) add(workload string, pid, rep int, base time.Duration, spans []span) {
	if c == nil {
		return
	}
	for i, s := range spans {
		c.events = append(c.events, chromeEvent{
			Name: s.name, Ph: "X", Pid: pid, Tid: s.track,
			Ts:   float64(int64(base)+s.start) / 1e3,
			Dur:  float64(s.dur()) / 1e3,
			Args: map[string]any{"workload": workload, "rep": rep, "id": i, "parent": s.parent},
		})
	}
}

func (c *chromeTrace) write(path string) error {
	data, err := json.Marshal(map[string]any{"traceEvents": c.events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
