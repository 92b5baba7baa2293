package main

import (
	"strings"
	"time"

	"gcs/internal/des"
)

// layerOf maps an event label to the layer its handler runs in. The
// label is the one the scheduling layer gave the engine event, so a
// clock timer carries its owner's label (gcs.beacon, gcs.catchup).
func layerOf(label string) string {
	switch {
	case label == "transport.deliver", label == "psim.deliver":
		return "transport"
	case strings.HasPrefix(label, "gcs."):
		return "gcs"
	case strings.HasPrefix(label, "clock."):
		return "clock"
	case label == "sim.sample":
		return "sim"
	case strings.HasPrefix(label, "churn."):
		return "dyngraph"
	case strings.HasPrefix(label, "fault."):
		return "fault"
	}
	return "other"
}

// layers lists the layers layerOf returns, in report order.
var layers = []string{"transport", "gcs", "clock", "sim", "dyngraph", "fault"}

// tracer attributes host time to event labels from outside the engine:
// installed as the trace hook of every engine of one run, it charges
// the wall time between two consecutive fired events to the first
// event's label. The engines run on one goroutine (the serial engine,
// or a sharded engine with Workers=1), so consecutive hook calls are
// ordered.
//
// A gap that crosses a phase boundary (the next event belongs to
// another engine, or a parallel window ended in between) also holds
// coordinator work: window set-up, cross-shard merges and barriers. Such
// a gap is charged the label's mean same-phase gap, and the rest stays
// unattributed. A label that never fires twice in one phase (the
// global-phase events) has no such estimate and is charged its whole
// gap; the coordinator work after a global event is a scan of the shard
// heads, small next to the event itself.
type tracer struct {
	index map[string]int
	label []string
	count []int64
	// same/sameN sum the gaps followed by an event of the same phase;
	// cross/crossN the gaps that crossed a phase boundary.
	same, cross   []time.Duration
	sameN, crossN []int64

	// windows reports the sharded engine's window counter (nil for the
	// serial engine); pending reports the mean engine queue length, read
	// at every sim.sample event.
	windows    func() uint64
	pending    func() float64
	pendingSum float64
	pendingN   int

	t0      time.Time
	last    time.Duration
	prev    int // label index of the previous event in this run; -1 none
	prevEng int
	prevWin uint64
	start   time.Duration
	// wall is the summed host time of every traced run; runWindows the
	// window count of the last one.
	wall       time.Duration
	runWindows uint64
}

func newTracer() *tracer {
	return &tracer{index: map[string]int{}, t0: time.Now(), prev: -1}
}

// hook returns the trace hook for engine number eng.
func (tr *tracer) hook(eng int) des.TraceFn {
	return func(_ des.Time, label string) { tr.fire(eng, label) }
}

func (tr *tracer) lookup(label string) int {
	i, ok := tr.index[label]
	if !ok {
		i = len(tr.label)
		tr.index[label] = i
		tr.label = append(tr.label, label)
		tr.count = append(tr.count, 0)
		tr.same = append(tr.same, 0)
		tr.cross = append(tr.cross, 0)
		tr.sameN = append(tr.sameN, 0)
		tr.crossN = append(tr.crossN, 0)
	}
	return i
}

func (tr *tracer) fire(eng int, label string) {
	now := time.Since(tr.t0)
	var win uint64
	if tr.windows != nil {
		win = tr.windows()
	}
	if p := tr.prev; p >= 0 {
		gap := now - tr.last
		if eng == tr.prevEng && win == tr.prevWin {
			tr.same[p] += gap
			tr.sameN[p]++
		} else {
			tr.cross[p] += gap
			tr.crossN[p]++
		}
	}
	i := tr.lookup(label)
	tr.count[i]++
	if tr.pending != nil && label == "sim.sample" {
		tr.pendingSum += tr.pending()
		tr.pendingN++
	}
	tr.prev, tr.prevEng, tr.prevWin, tr.last = i, eng, win, now
}

// begin marks the start of one traced run; the time before its first
// event stays unattributed.
func (tr *tracer) begin() {
	tr.prev = -1
	tr.last = time.Since(tr.t0)
	tr.start = tr.last
}

// end closes the run: the time after its last event is a phase-boundary
// gap of that event.
func (tr *tracer) end() {
	now := time.Since(tr.t0)
	if p := tr.prev; p >= 0 {
		tr.cross[p] += now - tr.last
		tr.crossN[p]++
	}
	tr.prev = -1
	tr.wall += now - tr.start
	if tr.windows != nil {
		tr.runWindows = tr.windows()
	}
}

// merge adds o's attributions to tr.
func (tr *tracer) merge(o *tracer) {
	for i, l := range o.label {
		j := tr.lookup(l)
		tr.count[j] += o.count[i]
		tr.same[j] += o.same[i]
		tr.cross[j] += o.cross[i]
		tr.sameN[j] += o.sameN[i]
		tr.crossN[j] += o.crossN[i]
	}
	tr.pendingSum += o.pendingSum
	tr.pendingN += o.pendingN
	tr.wall += o.wall
}

// pendingMean is the mean queue length over the sampled instants.
func (tr *tracer) pendingMean() float64 {
	if tr.pendingN == 0 {
		return 0
	}
	return tr.pendingSum / float64(tr.pendingN)
}

// selfTime is the host time attributed to label index i.
func (tr *tracer) selfTime(i int) time.Duration {
	t := tr.same[i]
	if tr.sameN[i] == 0 {
		return t + tr.cross[i]
	}
	est := time.Duration(float64(tr.same[i]) / float64(tr.sameN[i]) * float64(tr.crossN[i]))
	return t + min(est, tr.cross[i])
}

// meanNs is the mean attributed host time of one event whose label
// satisfies match, or 0 when no such event fired.
func (tr *tracer) meanNs(match func(string) bool) float64 {
	var t time.Duration
	var n int64
	for i, l := range tr.label {
		if match(l) {
			t += tr.selfTime(i)
			n += tr.count[i]
		}
	}
	if n == 0 {
		return 0
	}
	return float64(t.Nanoseconds()) / float64(n)
}

// layerTimes sums attributed time per layer, plus the total.
func (tr *tracer) layerTimes() (map[string]time.Duration, time.Duration) {
	out := map[string]time.Duration{}
	var total time.Duration
	for i, l := range tr.label {
		t := tr.selfTime(i)
		out[layerOf(l)] += t
		total += t
	}
	return out, total
}

// coverage is the share of traced host time some label accounts for.
func (tr *tracer) coverage() float64 {
	if tr.wall == 0 {
		return 0
	}
	_, total := tr.layerTimes()
	return float64(total) / float64(tr.wall)
}
