// Package des implements a deterministic discrete-event simulation kernel.
//
// The kernel models the continuous-time executions of the paper's Timed
// I/O Automata network model (Kuhn, Locher, Oshman, MIT-CSAIL-TR-2009-022,
// Section 3.2): time is a nonnegative real (float64), events fire in
// nondecreasing time order, and ties are broken deterministically by
// scheduling order, so a simulation with a fixed seed is bit-reproducible.
//
// All higher layers (clocks, transport, algorithms) are driven by this
// kernel. Between events every continuous quantity in the system is
// piecewise linear, so evaluating state lazily at event boundaries is
// exact and introduces no discretization error.
//
// The kernel is allocation-free in steady state: fired and cancelled
// events are recycled through a free list, the priority queue is a
// hand-rolled 4-ary index heap (shallower than a binary heap for the
// push/pop-heavy simulation workload, with no container/heap interface
// overhead), and ScheduleArg lets periodic schedulers reuse one
// long-lived callback instead of allocating a closure per event.
package des

import (
	"fmt"
	"math"
)

// Time is a point in simulated real time, in seconds. The simulation
// starts at time 0, matching the paper's convention that all hardware
// clocks read 0 at the beginning of the execution.
type Time = float64

// Handler is the callback invoked when an event fires. It runs at the
// event's scheduled time; Engine.Now() returns that time for the duration
// of the call.
type Handler func()

// ArgHandler is the argument-carrying form of Handler: one long-lived
// ArgHandler can back any number of events, distinguished by arg, so
// schedulers on hot paths do not allocate a closure per event.
type ArgHandler func(arg uint64)

// TraceFn observes event firings. It is called once per fired event,
// immediately before the event's callback runs, with the event's time
// and debug label. Cancelled events are never traced. The hook sits on
// the kernel's hottest path, so implementations must not allocate;
// recorders (e.g. the sim layer's time-series tracing) write into
// pre-sized ring buffers.
type TraceFn func(t Time, label string)

// Event is a scheduled occurrence in the simulation. Events are owned by
// the engine and recycled after they fire or are cancelled; user code
// only ever holds EventRef handles.
type Event struct {
	t     Time
	seq   uint64
	arg   uint64
	fn    Handler
	afn   ArgHandler
	label string
	gen   uint32
	index int32 // position in the heap, -1 when pooled
}

// EventRef is a generation-checked handle to a scheduled event. The zero
// EventRef refers to no event. A ref goes stale the instant its event
// fires or is cancelled; stale refs are safe to hold and to Cancel (a
// no-op), even after the engine recycles the underlying Event for a new
// schedule.
type EventRef struct {
	e   *Event
	gen uint32
}

// Pending reports whether the referenced event is still scheduled (not
// yet fired or cancelled).
func (r EventRef) Pending() bool { return r.e != nil && r.e.gen == r.gen }

// Time returns the scheduled fire time while the event is pending, and
// NaN once the ref is stale (the underlying Event may have been recycled).
func (r EventRef) Time() Time {
	if !r.Pending() {
		return math.NaN()
	}
	return r.e.t
}

// Label returns the debug label while the event is pending, and "" once
// the ref is stale.
func (r EventRef) Label() string {
	if !r.Pending() {
		return ""
	}
	return r.e.label
}

// Engine is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use.
type Engine struct {
	now     Time
	heap    []*Event // 4-ary min-heap ordered by (t, seq)
	free    []*Event // recycled events
	nextSeq uint64
	// executed counts events that have fired (not cancelled ones).
	executed uint64
	// stopped is set by Stop to end Run early.
	stopped bool
	// trace, when non-nil, observes every fired event.
	trace TraceFn
}

// Scheduler is the seam the shared scenario processes (rate drivers and
// fault schedules) run on: a clock and absolute-time scheduling. *Engine
// implements it directly; the real-time runtime implements it per node
// with wall timers. Implementations that cannot cancel return the zero
// EventRef.
type Scheduler interface {
	Now() Time
	ScheduleArg(t Time, label string, fn ArgHandler, arg uint64) EventRef
}

var _ Scheduler = (*Engine)(nil)

// NewEngine returns an engine positioned at time 0 with an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time. During an event handler this is
// the handler's scheduled fire time.
func (en *Engine) Now() Time { return en.now }

// Reset returns the engine to time 0 with an empty queue, recycling every
// pending event through the free list so a rewired simulation reuses the
// warm pool instead of reallocating it. Outstanding EventRefs go stale
// (Cancel on them stays a harmless no-op); the executed counter restarts;
// an installed trace hook is kept.
func (en *Engine) Reset() {
	for i, e := range en.heap {
		en.heap[i] = nil
		en.release(e)
	}
	en.heap = en.heap[:0]
	en.now = 0
	en.nextSeq = 0
	en.executed = 0
	en.stopped = false
}

// Executed returns the number of events that have fired so far.
func (en *Engine) Executed() uint64 { return en.executed }

// SetTraceHook installs fn as the engine's event tracer (nil removes
// it). The hook fires for every executed event, before its callback;
// see TraceFn for the contract.
func (en *Engine) SetTraceHook(fn TraceFn) { en.trace = fn }

// Pending returns the number of events in the queue. Cancelled events are
// removed eagerly, so every counted event will fire unless cancelled
// later.
func (en *Engine) Pending() int { return len(en.heap) }

// PoolSize returns the number of recycled events on the free list, for
// observability in tests.
func (en *Engine) PoolSize() int { return len(en.free) }

// Schedule registers fn to run at absolute time t and returns a handle
// that can be cancelled. Scheduling in the past (t < Now) panics: the
// network model has no retroactive events, so this is always a bug in the
// caller.
//
//gcslint:zeroalloc
func (en *Engine) Schedule(t Time, label string, fn Handler) EventRef {
	e := en.schedule(t, label)
	e.fn = fn
	return EventRef{e: e, gen: e.gen}
}

// ScheduleArg registers fn(arg) to run at absolute time t. It is the
// zero-allocation counterpart of Schedule for callers that would
// otherwise close over per-event state.
//
//gcslint:zeroalloc
func (en *Engine) ScheduleArg(t Time, label string, fn ArgHandler, arg uint64) EventRef {
	e := en.schedule(t, label)
	e.afn = fn
	e.arg = arg
	return EventRef{e: e, gen: e.gen}
}

//gcslint:zeroalloc
func (en *Engine) schedule(t Time, label string) *Event {
	if math.IsNaN(t) {
		panic("des: schedule at NaN time")
	}
	if t < en.now {
		panic(fmt.Sprintf("des: schedule at %v before now %v (%s)", t, en.now, label))
	}
	var e *Event
	if n := len(en.free); n > 0 {
		e = en.free[n-1]
		en.free[n-1] = nil
		en.free = en.free[:n-1]
	} else {
		e = &Event{}
	}
	e.t = t
	e.seq = en.nextSeq
	e.label = label
	en.nextSeq++
	en.push(e)
	return e
}

// ScheduleAfter registers fn to run d seconds of simulated time from now.
func (en *Engine) ScheduleAfter(d Time, label string, fn Handler) EventRef {
	return en.Schedule(en.now+d, label, fn)
}

// ScheduleAfterArg registers fn(arg) to run d seconds from now.
func (en *Engine) ScheduleAfterArg(d Time, label string, fn ArgHandler, arg uint64) EventRef {
	return en.ScheduleArg(en.now+d, label, fn, arg)
}

// Cancel removes the referenced event from the queue and recycles it. A
// cancelled event never fires. Cancelling a zero or stale ref (already
// fired, already cancelled, or recycled) is a no-op, mirroring the
// paper's cancel(timer-ID) semantics.
func (en *Engine) Cancel(r EventRef) {
	e := r.e
	if e == nil || e.gen != r.gen {
		return
	}
	en.remove(int(e.index))
	en.release(e)
}

// release invalidates outstanding refs and returns e to the free list.
//
//gcslint:zeroalloc
func (en *Engine) release(e *Event) {
	e.gen++
	e.fn = nil
	e.afn = nil
	e.label = ""
	e.index = -1
	en.free = append(en.free, e)
}

// fire advances time to e, recycles it, and runs its callback. The event
// is released before the callback so the callback may schedule new events
// that reuse it; outstanding refs are already stale by then.
//
//gcslint:zeroalloc
func (en *Engine) fire(e *Event) {
	en.now = e.t
	en.executed++
	fn, afn, arg := e.fn, e.afn, e.arg
	if en.trace != nil {
		en.trace(e.t, e.label)
	}
	en.release(e)
	if afn != nil {
		afn(arg)
	} else {
		fn()
	}
}

// Stop requests that event execution halt. A Stop issued from inside an
// event handler makes the surrounding Run/RunUntilIdle return after the
// handler completes; a Stop issued between runs makes the next
// Run/RunUntilIdle return before firing any event. The request is sticky
// until a run loop consumes it — it is never silently discarded — and
// each request stops exactly one run. A consumed stop leaves Now() at
// the last fired event's time (the queue may still hold earlier-than-
// horizon events), so a later Step or Run resumes exactly where the
// stopped run left off.
func (en *Engine) Stop() { en.stopped = true }

// Stopped reports whether a Stop request is pending (not yet consumed by
// a run loop).
func (en *Engine) Stopped() bool { return en.stopped }

// Step fires the single earliest pending event, if any, and reports
// whether an event fired.
func (en *Engine) Step() bool {
	if len(en.heap) == 0 {
		return false
	}
	e := en.heap[0]
	en.remove(0)
	en.fire(e)
	return true
}

// Run fires events in order until the queue is empty, Stop is called, or
// the next event would fire strictly after horizon. When the loop drains
// the queue or breaks on the horizon check, Now() is advanced to horizon
// so that callers can sample end-of-run state. When Stop halted the loop,
// Now() stays at the last fired event's time: events earlier than the
// horizon may still be pending, and advancing past them would make a
// later Step fire them in the simulated past (time running backwards)
// and make legitimate Schedule calls between the pending event and the
// horizon panic. The head of the queue is fired directly — cancellation
// removes events eagerly, so no skip pass is needed between the peek and
// the fire.
func (en *Engine) Run(horizon Time) {
	for !en.stopped && len(en.heap) > 0 {
		e := en.heap[0]
		if e.t > horizon {
			break
		}
		en.remove(0)
		en.fire(e)
	}
	if en.stopped {
		en.stopped = false // consume the request; Now stays put
		return
	}
	if en.now < horizon {
		en.now = horizon
	}
}

// RunBefore fires events in order while the head's time is strictly less
// than limit, without ever advancing Now beyond the last fired event.
// Unlike Run it ignores Stop requests (it is the inner loop of the
// parallel coordinator, which checks Stop at window barriers). It returns
// the number of events fired.
func (en *Engine) RunBefore(limit Time) int {
	fired := 0
	for len(en.heap) > 0 {
		e := en.heap[0]
		if e.t >= limit {
			break
		}
		en.remove(0)
		en.fire(e)
		fired++
	}
	return fired
}

// AdvanceTo moves Now forward to t without firing anything. It panics if
// an event earlier than t is pending — advancing over it would fire it
// in the past later. Calls with t <= Now are no-ops, so callers can
// advance a set of engines to a common barrier time unconditionally.
func (en *Engine) AdvanceTo(t Time) {
	if t <= en.now {
		return
	}
	if len(en.heap) > 0 && en.heap[0].t < t {
		panic(fmt.Sprintf("des: AdvanceTo(%v) over pending event at %v", t, en.heap[0].t))
	}
	en.now = t
}

// RunUntilIdle fires events until none remain or Stop is called (see
// Stop for the sticky consume-one-run semantics Run shares). It panics
// if more than maxEvents fire, as a guard against runaway
// self-rescheduling loops.
func (en *Engine) RunUntilIdle(maxEvents uint64) {
	start := en.executed
	for !en.stopped && en.Step() {
		if en.executed-start > maxEvents {
			panic(fmt.Sprintf("des: exceeded %d events (runaway schedule?)", maxEvents))
		}
	}
	en.stopped = false
}

// NextEventTime returns the fire time of the earliest pending event and
// true, or (0, false) if the queue is empty.
func (en *Engine) NextEventTime() (Time, bool) {
	if len(en.heap) == 0 {
		return 0, false
	}
	return en.heap[0].t, true
}

// ---- 4-ary index heap, ordered by (t, seq) ----

func eventLess(a, b *Event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

//gcslint:zeroalloc
func (en *Engine) push(e *Event) {
	en.heap = append(en.heap, e)
	e.index = int32(len(en.heap) - 1)
	en.siftUp(len(en.heap) - 1)
}

// remove deletes the event at heap position i, restoring the invariant.
//
//gcslint:zeroalloc
func (en *Engine) remove(i int) {
	h := en.heap
	n := len(h) - 1
	e := h[i]
	if i != n {
		moved := h[n]
		h[i] = moved
		moved.index = int32(i)
	}
	h[n] = nil
	en.heap = h[:n]
	if i < n {
		moved := en.heap[i]
		en.siftDown(i)
		en.siftUp(int(moved.index))
	}
	e.index = -1
}

//gcslint:zeroalloc
func (en *Engine) siftUp(i int) {
	h := en.heap
	e := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !eventLess(e, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = int32(i)
		i = p
	}
	h[i] = e
	e.index = int32(i)
}

//gcslint:zeroalloc
func (en *Engine) siftDown(i int) {
	h := en.heap
	n := len(h)
	e := h[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		m := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if eventLess(h[c], h[m]) {
				m = c
			}
		}
		if !eventLess(h[m], e) {
			break
		}
		h[i] = h[m]
		h[i].index = int32(i)
		i = m
	}
	h[i] = e
	e.index = int32(i)
}
