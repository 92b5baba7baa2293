// Package transport implements the paper's bounded-delay message model
// (Kuhn, Locher, Oshman, SPAA 2009, Section 3.2) on top of the dynamic
// graph: every message sent over a present edge is delivered to the other
// endpoint after a delay in (0, maxDelay], unless the edge disappears
// while the message is in flight, in which case the message is lost.
// Messages never survive an edge removal — a later re-add of the same
// edge does not resurrect them — and deliveries on one edge with equal
// delays are FIFO (the DES kernel breaks ties by scheduling order).
//
// The layer subscribes to dyngraph topology events, so user code only
// drives the graph; in-flight bookkeeping is automatic.
//
// Delays are drawn per message from a base DelayFn, optionally overridden
// per directed edge by an EdgeDelayFn mask — the instrument of the
// Section 4 adversary, which charges asymmetric delays across the
// lower-bound network's two chains.
//
// The send/deliver path is allocation-free in steady state: payloads are
// typed float64 values (the only payload the GCS model carries — a
// logical clock reading — so no boxing through an interface), in-flight
// messages live in a pooled arena indexed by small integers, the per-edge
// in-flight table and the per-node handler table are slice-backed, and
// Broadcast reuses one neighbor buffer per network and skips the edge
// presence check entirely (its targets come from the live adjacency).
package transport

import (
	"fmt"

	"gcs/internal/des"
	"gcs/internal/dyngraph"
	"gcs/internal/fault"
)

// Message is one point-to-point payload in flight or delivered. Value is
// the sender's logical clock reading — the model's only message content.
type Message struct {
	From, To  int
	Edge      dyngraph.Edge
	Value     float64
	SentAt    des.Time
	DeliverAt des.Time
}

// Handler consumes messages delivered to one node. It runs at the
// message's delivery time.
type Handler func(m Message)

// DelayFn draws the in-flight delay for a message about to be sent. The
// returned delay must lie in (0, maxDelay]; the Network panics otherwise,
// since a zero or oversized delay would break the paper's model.
type DelayFn func(m *Message) float64

// UniformDelay returns a DelayFn drawing uniformly from (0, maxDelay]
// using the given deterministic source.
func UniformDelay(maxDelay float64, r *des.Rand) DelayFn {
	if maxDelay <= 0 {
		panic("transport: maxDelay must be positive")
	}
	return func(*Message) float64 {
		// 1 - Float64() is in (0, 1], so the delay is in (0, maxDelay].
		return maxDelay * (1 - r.Float64())
	}
}

// UniformDelayIn returns a DelayFn drawing uniformly from (minDelay,
// maxDelay] using the given deterministic source. With minDelay == 0 it
// draws the identical sequence as UniformDelay(maxDelay, r) — bit for
// bit, since 0 + (max-0)*u == max*u in float arithmetic — so a serial
// configuration gains a positive delay floor (the parallel engine's
// lookahead) without perturbing the legacy delay law.
func UniformDelayIn(minDelay, maxDelay float64, r *des.Rand) DelayFn {
	if maxDelay <= 0 {
		panic("transport: maxDelay must be positive")
	}
	if minDelay < 0 || minDelay >= maxDelay {
		panic("transport: minDelay must lie in [0, maxDelay)")
	}
	return func(*Message) float64 {
		// 1 - Float64() is in (0, 1], so the delay is in (minDelay, maxDelay].
		return minDelay + (maxDelay-minDelay)*(1-r.Float64())
	}
}

// FixedDelay returns a DelayFn that always charges d. Adversarial
// schedules and tests use it to pin message timing exactly.
func FixedDelay(d float64) DelayFn {
	if d <= 0 {
		panic("transport: fixed delay must be positive")
	}
	return func(*Message) float64 { return d }
}

// EdgeDelayFn is a per-edge adversarial delay mask. It is consulted once
// per send with the directed pair (from, to) and returns the DelayFn to
// charge for that message, or nil to fall back to the network's base
// delay. This is the adversary of the paper's Section 4 lower bound,
// which charges the full maxDelay on the edges of one chain of the
// two-chain network and a near-zero delay on the other. The mask runs on
// the send hot path, so implementations must not allocate; returning
// pre-built DelayFn values (e.g. FixedDelay closures created once at
// wiring time) keeps the path allocation-free.
type EdgeDelayFn func(from, to int) DelayFn

// Stats counts transport activity over an execution.
type Stats struct {
	// Sent counts messages accepted for delivery.
	Sent uint64
	// Delivered counts messages handed to a receiver handler.
	Delivered uint64
	// Dropped counts in-flight messages lost to edge removals.
	Dropped uint64
	// Refused counts sends attempted over absent edges.
	Refused uint64
	// Coalesced is always 0: every message is delivered on its own. The
	// field stays so that reports keep their field layout (report
	// digests print every field).
	Coalesced uint64
}

// flight is one in-flight message plus its delivery-event metadata.
// Flights live in the Network's arena and are addressed by index, never
// by pointer, so recycling them costs nothing.
type flight struct {
	msg  Message
	ev   des.EventRef
	slot int32 // edge slot owning this flight
	pos  int32 // index within the slot's in-flight list
}

// Network is the bounded-delay transport over one dynamic graph. It is
// single-threaded, owned by the graph's engine.
type Network struct {
	en       *des.Engine
	g        *dyngraph.Dynamic
	maxDelay float64
	delay    DelayFn
	// mask, when non-nil, overrides delay per directed (from, to) pair.
	mask EdgeDelayFn
	// handlers is indexed by node id.
	handlers []Handler
	// edgeSlot assigns each edge currently carrying traffic a slot in
	// slots, which lists the arena indices of the edge's flights.
	// Removing an edge recycles its slot through freeSlots (keeping the
	// list's capacity), so the table is bounded by the live edge count
	// even when churn eventually touches every node pair.
	edgeSlot  map[dyngraph.Edge]int32
	slots     [][]uint32
	freeSlots []int32
	// flights is the arena; freeFlights lists recycled indices.
	flights     []flight
	freeFlights []uint32
	// deliverFn is the single engine callback backing every delivery;
	// the event arg is the flight's arena index.
	deliverFn des.ArgHandler
	// nbuf is the reused Broadcast neighbor buffer.
	nbuf  []int
	stats Stats
	// faults, when non-nil, draws a per-message fault verdict (drop,
	// duplicate, delay spike) before the normal send path; faultStats
	// accumulates what fired.
	faults     *fault.Messages
	faultStats fault.Stats
}

// New creates a transport over g with the given delay law and bound, and
// subscribes it to g's topology events.
func New(en *des.Engine, g *dyngraph.Dynamic, delay DelayFn, maxDelay float64) *Network {
	if maxDelay <= 0 {
		panic("transport: maxDelay must be positive")
	}
	if delay == nil {
		panic("transport: nil DelayFn")
	}
	n := &Network{
		en:       en,
		g:        g,
		maxDelay: maxDelay,
		delay:    delay,
		handlers: make([]Handler, g.N()),
		edgeSlot: make(map[dyngraph.Edge]int32),
	}
	n.deliverFn = func(arg uint64) { n.deliver(uint32(arg)) }
	g.Subscribe(n)
	return n
}

// Reset drops all in-flight traffic and counters and installs a new
// delay law, reusing the slot table, flight arena, and handler table, so
// a rewired simulation's transport allocates nothing in steady state.
// The delay mask is removed. Call it after the engine has been Reset —
// pending delivery events are already recycled, so flights are released
// without cancelling them. Handlers registered for surviving node ids
// stay registered; the table grows if the graph was Reset to more nodes.
func (n *Network) Reset(delay DelayFn, maxDelay float64) {
	if maxDelay <= 0 {
		panic("transport: maxDelay must be positive")
	}
	if delay == nil {
		panic("transport: nil DelayFn")
	}
	n.maxDelay = maxDelay
	n.delay = delay
	n.mask = nil
	clear(n.edgeSlot)
	n.freeSlots = n.freeSlots[:0]
	for i := range n.slots {
		n.slots[i] = n.slots[i][:0]
		n.freeSlots = append(n.freeSlots, int32(i))
	}
	n.freeFlights = n.freeFlights[:0]
	for i := range n.flights {
		n.flights[i].ev = des.EventRef{}
		n.freeFlights = append(n.freeFlights, uint32(i))
	}
	if g := n.g.N(); g > len(n.handlers) {
		grown := make([]Handler, g)
		copy(grown, n.handlers)
		n.handlers = grown
	}
	n.stats = Stats{}
	n.faults = nil
	n.faultStats = fault.Stats{}
}

// MaxDelay returns the configured delay bound.
func (n *Network) MaxDelay() float64 { return n.maxDelay }

// SetDelayMask installs (or, with nil, removes) a per-edge delay mask.
// While a mask is set, every send first asks mask(from, to) for a
// DelayFn; a non-nil answer overrides the network's base delay law for
// that message, a nil answer falls through to it. Masked delays are
// subject to the same (0, maxDelay] validation as base delays, and
// masked messages keep the usual in-flight semantics (in particular they
// are still dropped if their edge disappears before delivery).
func (n *Network) SetDelayMask(mask EdgeDelayFn) { n.mask = mask }

// SetFaults installs (or, with nil, removes) a message-fault plan:
// every send first draws a verdict from it — dropped messages count
// toward Sent (the sender paid for them) and the plan's Drops, never
// toward Dropped (no edge removal occurred); duplicated messages send
// a second flight with its own nominal delay; spiked messages charge a
// delay beyond MaxDelay, exempt from the (0, maxDelay] validation.
// Reset removes the plan.
func (n *Network) SetFaults(m *fault.Messages) { n.faults = m }

// FaultStats returns the fault counters accumulated so far.
func (n *Network) FaultStats() fault.Stats { return n.faultStats }

// Stats returns the counters accumulated so far.
func (n *Network) Stats() Stats { return n.stats }

// SetHandler registers the delivery callback for node u, replacing any
// previous one. Messages delivered to a node with no handler are counted
// as delivered and discarded.
func (n *Network) SetHandler(u int, h Handler) { n.handlers[u] = h }

// InFlight returns the number of messages currently in flight on e.
func (n *Network) InFlight(e dyngraph.Edge) int {
	slot, ok := n.edgeSlot[e]
	if !ok {
		return 0
	}
	return len(n.slots[slot])
}

// Send transmits value from one endpoint of a present edge to the other.
// It reports whether the message was accepted; a send over an absent
// edge is refused (the model has no way to transmit without an edge).
func (n *Network) Send(from, to int, value float64) bool {
	e := dyngraph.E(from, to)
	if !n.g.Present(e) {
		n.stats.Refused++
		return false
	}
	n.send(from, to, e, value)
	return true
}

// send accepts a value over an edge known to be present, applying the
// fault plan (if any) before the normal path.
func (n *Network) send(from, to int, e dyngraph.Edge, value float64) {
	if n.faults != nil {
		v := n.faults.Draw(from, n.en.Now(), &n.faultStats)
		if v.Drop {
			// The sender paid for the message; the fault plan ate it.
			n.stats.Sent++
			return
		}
		n.sendOne(from, to, e, value, v.Delay)
		if v.Dup {
			n.sendOne(from, to, e, value, 0)
		}
		return
	}
	n.sendOne(from, to, e, value, 0)
}

// sendOne transmits one value over an edge known to be present.
// spikedDelay, when positive, is a fault-injected delay that may exceed
// maxDelay and bypasses the nominal-law validation; 0 draws from the
// usual delay law.
//
//gcslint:zeroalloc
func (n *Network) sendOne(from, to int, e dyngraph.Edge, value float64, spikedDelay float64) {
	now := n.en.Now()
	slot := n.slotFor(e)
	fi := n.allocFlight()
	f := &n.flights[fi]
	f.msg = Message{
		From:   from,
		To:     to,
		Edge:   e,
		Value:  value,
		SentAt: now,
	}
	d := spikedDelay
	if d == 0 {
		delay := n.delay
		if n.mask != nil {
			if m := n.mask(from, to); m != nil {
				delay = m
			}
		}
		d = delay(&f.msg)
		if d <= 0 || d > n.maxDelay {
			panic(fmt.Sprintf("transport: delay %v outside (0, %v]", d, n.maxDelay))
		}
	}
	f.msg.DeliverAt = now + d
	f.ev = n.en.ScheduleArg(f.msg.DeliverAt, "transport.deliver", n.deliverFn, uint64(fi))
	f.slot = slot
	f.pos = int32(len(n.slots[slot]))
	n.slots[slot] = append(n.slots[slot], fi)
	n.stats.Sent++
}

// Broadcast sends value from u to every current neighbor, in ascending
// neighbor order, and returns the number of values sent. The neighbor
// set comes from the live adjacency, so the per-send edge presence check
// is skipped entirely. It reuses one per-network neighbor buffer, so it
// must not be called reentrantly from inside another Broadcast's send
// loop (deliveries happen later, from engine events, so handlers may
// broadcast freely).
//
//gcslint:zeroalloc
func (n *Network) Broadcast(from int, value float64) int {
	n.nbuf = n.g.AppendNeighbors(from, n.nbuf[:0])
	for _, v := range n.nbuf {
		n.send(from, v, dyngraph.E(from, v), value)
	}
	return len(n.nbuf)
}

// allocFlight returns a free arena index, growing the arena if the free
// list is empty.
//
//gcslint:zeroalloc
func (n *Network) allocFlight() uint32 {
	if k := len(n.freeFlights); k > 0 {
		fi := n.freeFlights[k-1]
		n.freeFlights = n.freeFlights[:k-1]
		return fi
	}
	n.flights = append(n.flights, flight{})
	return uint32(len(n.flights) - 1)
}

// slotFor returns e's slot, assigning one (recycled if possible) on
// first use since the edge last appeared.
//
//gcslint:zeroalloc
func (n *Network) slotFor(e dyngraph.Edge) int32 {
	slot, ok := n.edgeSlot[e]
	if !ok {
		if k := len(n.freeSlots); k > 0 {
			slot = n.freeSlots[k-1]
			n.freeSlots = n.freeSlots[:k-1]
		} else {
			slot = int32(len(n.slots))
			n.slots = append(n.slots, nil)
		}
		n.edgeSlot[e] = slot
	}
	return slot
}

// deliver hands flight fi's message to the destination handler and
// recycles the flight. The flight is released before the handler runs,
// so the handler may send new messages that reuse it.
//
//gcslint:zeroalloc
func (n *Network) deliver(fi uint32) {
	f := &n.flights[fi]
	// Unlink from the edge's in-flight list: swap-remove, fixing the
	// moved flight's position.
	list := n.slots[f.slot]
	last := len(list) - 1
	moved := list[last]
	list[f.pos] = moved
	n.flights[moved].pos = f.pos
	n.slots[f.slot] = list[:last]

	msg := f.msg
	n.stats.Delivered++
	f.ev = des.EventRef{}
	n.freeFlights = append(n.freeFlights, fi)
	if h := n.handlers[msg.To]; h != nil {
		h(msg)
	}
}

// EdgeAdded implements dyngraph.Subscriber. A fresh edge carries no
// traffic: in particular, messages dropped during an earlier absence of
// the same edge stay dropped.
func (n *Network) EdgeAdded(t float64, e dyngraph.Edge) {}

// EdgeRemoved implements dyngraph.Subscriber: every message in flight
// on the removed edge is lost (the paper's model drops messages whose
// edge disappears before delivery).
func (n *Network) EdgeRemoved(t float64, e dyngraph.Edge) {
	slot, ok := n.edgeSlot[e]
	if !ok {
		return
	}
	for _, fi := range n.slots[slot] {
		f := &n.flights[fi]
		n.en.Cancel(f.ev)
		f.ev = des.EventRef{}
		n.stats.Dropped++
		n.freeFlights = append(n.freeFlights, fi)
	}
	// Recycle the slot: all its flights are gone, and the edge must be
	// re-added before it can carry traffic again.
	n.slots[slot] = n.slots[slot][:0]
	delete(n.edgeSlot, e)
	n.freeSlots = append(n.freeSlots, slot)
}
