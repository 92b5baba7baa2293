package rt

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gcs/internal/fault"
	"gcs/internal/seam"
	"gcs/internal/transport"
)

// Router is the real-time runtime's in-process transport and live
// topology: the seam.Sender and seam.Topology every node is wired to.
// Sends draw a bounded random delay from the sender's own PRNG stream
// (so delay sequences are per-sender deterministic, like the parallel
// DES engine's) and deliver through a time.AfterFunc into the
// receiver's event queue. Edge presence is re-checked at delivery time:
// a message whose edge disappeared mid-flight is lost, the runtime's
// rendering of the model's edge-removal losses.
//
// Adjacency is guarded by an RWMutex — node goroutines read it on
// every broadcast and fast-mode scan, the churner writes it. Lock
// order: a host lock may be held while taking the router lock, never
// the reverse (the sampler snapshots edges before touching hosts, the
// churner enqueues discovery only after releasing the write lock).
type Router struct {
	r                  *Runtime
	minDelay, maxDelay float64
	// faults, when non-nil, draws per-send fault verdicts (drop, dup,
	// delay spike) from per-sender streams, the same fault.Messages
	// engine the DES transport uses.
	faults *fault.Messages

	mu  sync.RWMutex
	adj [][]int // sorted neighbor slices, symmetric
	// edgeAdds/edgeRemoves count distinct edge insertions/removals (an
	// add of a present edge or remove of an absent one is a no-op).
	edgeAdds, edgeRemoves int

	sent, delivered, dropped, refused atomic.Uint64
}

var (
	_ seam.Sender   = (*Router)(nil)
	_ seam.Topology = (*Router)(nil)
)

func newRouter(r *Runtime, n int, minDelay, maxDelay float64) *Router {
	return &Router{r: r, minDelay: minDelay, maxDelay: maxDelay, adj: make([][]int, n)}
}

// drawDelay returns a nominal delay in (minDelay, maxDelay], the
// transport.UniformDelayIn law over the sender's own stream.
func (rt *Router) drawDelay(h *host) float64 {
	return rt.minDelay + (rt.maxDelay-rt.minDelay)*(1-h.delayRand.Float64())
}

// installEdge inserts an initial-topology edge without counting it as a
// churn add, mirroring dyngraph.NewDynamic's silent initial edge set.
func (rt *Router) installEdge(u, v int) {
	rt.adj[u], _ = insertSorted(rt.adj[u], v)
	rt.adj[v], _ = insertSorted(rt.adj[v], u)
}

// insertSorted/removeSorted maintain one endpoint's sorted neighbor
// slice, reporting whether the set changed.
func insertSorted(s []int, v int) ([]int, bool) {
	i := sort.SearchInts(s, v)
	if i < len(s) && s[i] == v {
		return s, false
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s, true
}

func removeSorted(s []int, v int) ([]int, bool) {
	i := sort.SearchInts(s, v)
	if i >= len(s) || s[i] != v {
		return s, false
	}
	return append(s[:i], s[i+1:]...), true
}

// addEdge inserts {u, v}, reporting whether it was absent before.
func (rt *Router) addEdge(u, v int) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var added bool
	rt.adj[u], added = insertSorted(rt.adj[u], v)
	if !added {
		return false
	}
	rt.adj[v], _ = insertSorted(rt.adj[v], u)
	rt.edgeAdds++
	return true
}

// removeEdge deletes {u, v}, reporting whether it was present.
func (rt *Router) removeEdge(u, v int) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var removed bool
	rt.adj[u], removed = removeSorted(rt.adj[u], v)
	if !removed {
		return false
	}
	rt.adj[v], _ = removeSorted(rt.adj[v], u)
	rt.edgeRemoves++
	return true
}

// present reports edge presence; callers hold rt.mu (either mode).
func (rt *Router) present(u, v int) bool {
	s := rt.adj[u]
	i := sort.SearchInts(s, v)
	return i < len(s) && s[i] == v
}

// AppendNeighbors implements seam.Topology.
func (rt *Router) AppendNeighbors(u int, buf []int) []int {
	rt.mu.RLock()
	buf = append(buf, rt.adj[u]...)
	rt.mu.RUnlock()
	return buf
}

// Broadcast implements seam.Sender: one send per current neighbor, in
// ascending order (fixing the sender's delay-draw order, like the DES
// transports). Runs on the sending node's goroutine.
func (rt *Router) Broadcast(from int, value float64) int {
	h := rt.r.hosts[from]
	rt.mu.RLock()
	h.sendBuf = append(h.sendBuf[:0], rt.adj[from]...)
	rt.mu.RUnlock()
	for _, to := range h.sendBuf {
		rt.send(from, to, value)
	}
	return len(h.sendBuf)
}

// Send implements seam.Sender's unicast (neighbor discovery's immediate
// beacon); a send over an absent edge is refused.
func (rt *Router) Send(from, to int, value float64) bool {
	rt.mu.RLock()
	ok := rt.present(from, to)
	rt.mu.RUnlock()
	if !ok {
		rt.refused.Add(1)
		return false
	}
	rt.send(from, to, value)
	return true
}

// send accepts a value over an edge known to be present, applying the
// fault plan first. Accounting mirrors the DES transport: a
// fault-dropped message counts Sent (the sender paid for it), a dup's
// copy counts as its own send with its own delay draw.
func (rt *Router) send(from, to int, value float64) {
	h := rt.r.hosts[from]
	var v fault.Verdict
	if rt.faults != nil {
		v = rt.faults.Draw(from, rt.r.simNow(), &h.msgFaults)
	}
	if v.Drop {
		rt.sent.Add(1)
		return
	}
	delay := v.Delay
	if delay == 0 {
		delay = rt.drawDelay(h)
	}
	rt.deliverAfter(from, to, value, delay)
	if v.Dup {
		rt.deliverAfter(from, to, value, rt.drawDelay(h))
	}
}

// deliverAfter schedules one delivery. The presence re-check and the
// node callback run in the receiver's event context.
func (rt *Router) deliverAfter(from, to int, value float64, delay float64) {
	rt.sent.Add(1)
	dst := rt.r.hosts[to]
	time.AfterFunc(durOf(delay), func() {
		dst.enqueue(func() {
			rt.mu.RLock()
			ok := rt.present(from, to)
			rt.mu.RUnlock()
			if !ok {
				rt.dropped.Add(1)
				return
			}
			rt.delivered.Add(1)
			dst.node.OnMessage(from, value)
		})
	})
}

// Stats returns the traffic counters in the shared report shape.
// Coalesced is always 0: the runtime sends every value as its own
// datagram.
func (rt *Router) Stats() transport.Stats {
	return transport.Stats{
		Sent:      rt.sent.Load(),
		Delivered: rt.delivered.Load(),
		Dropped:   rt.dropped.Load(),
		Refused:   rt.refused.Load(),
	}
}

// churnStats returns the distinct edge add/remove counts (initial
// edges excluded, like dyngraph.Dynamic.Stats).
func (rt *Router) churnStats() (adds, removes int) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.edgeAdds, rt.edgeRemoves
}

// snapshotEdges appends every current edge as an (u, v) pair with u < v
// to buf and returns it. The sampler copies under the read lock and
// releases before touching host locks (lock-order discipline).
func (rt *Router) snapshotEdges(buf [][2]int) [][2]int {
	rt.mu.RLock()
	for u, nbrs := range rt.adj {
		for _, v := range nbrs {
			if u < v {
				buf = append(buf, [2]int{u, v})
			}
		}
	}
	rt.mu.RUnlock()
	return buf
}
