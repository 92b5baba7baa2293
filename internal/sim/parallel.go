package sim

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"gcs/internal/des"
	"gcs/internal/dyngraph"
	"gcs/internal/fault"
	"gcs/internal/transport"
)

// ParallelSim runs one scenario on the sharded conservative-parallel
// engine (des.ParallelEngine). Nodes are block-partitioned into
// Config.Shards shards, each owning a serial DES engine that carries the
// shard's clocks, drivers, beacon timers, and intra-shard message
// deliveries; skew sampling, gradient checking, and topology churn run
// on the coordinator's global engine, which observes every shard
// barriered at a single consistent instant.
//
// Parallel mode is its own physics, not a reimplementation of the
// serial Simulation's:
//
//   - message delays are drawn from per-node PRNG streams (the sender's
//     stream, in the sender's local send order) and lie in (MinDelay,
//     MaxDelay] — the positive floor is the engine's lookahead, the
//     amount of simulated time shard windows may run ahead of each
//     other;
//   - a message crossing a removed edge is dropped at delivery time by
//     an edge-history check (dyngraph.ExistsThroughout) instead of by an
//     eager cancel, so the drop semantics — lost iff the edge was absent
//     at any point of the flight — match the paper's model exactly.
//
// Because every delay draw, event order, and cross-shard merge is a
// pure function of the Config (Shards included, Workers excluded), the
// report is bit-identical for every worker count; workers=1 is the
// serial reference the determinism suite compares against.
//
// A ParallelSim is reusable like Simulation: Reset rewires it in place,
// recycling engines, graph storage, flight arenas, and per-node objects
// when the (N, Shards, MinDelay) shape is unchanged.
type ParallelSim struct {
	core
	P *des.ParallelEngine

	// shardOf maps node -> shard (block partition); shards holds the
	// per-shard transport state.
	shardOf []int32
	shards  []*pshard

	// delayRands[i] is node i's private delay stream, forked per run from
	// the delay root, so draw order depends only on the node's own send
	// sequence — never on how shard windows interleave.
	delayRoot  des.Rand
	delayRands []des.Rand

	// shape keys the rebuild decision: engines and per-node objects are
	// reconstructed only when it changes.
	shape pshape

	// Shard-local sample reduction. shardStart[s]..shardStart[s+1] is
	// shard s's contiguous node block (the same block partition as
	// shardOf); sampleLo/sampleHi hold per-shard partial extrema, merged
	// in fixed shard order so the result is bit-identical to the serial
	// left-to-right scan. runWorkers is the worker count Run resolved;
	// like Workers itself it is execution, not physics.
	shardStart   []int32
	sampleLo     []float64
	sampleHi     []float64
	sampleNext   atomic.Int64
	sampleWG     sync.WaitGroup
	sampleWorker func()
	runWorkers   int

	// msgPlan is the message-fault plan shard sends draw their verdicts
	// from, per sender inside shard events; nil when the run has none.
	msgPlan *fault.Messages
}

// pshape is the allocation shape of a wired ParallelSim: changing any
// field forces a rebuild (clocks bind to their shard's engine at
// construction, and the engine set is fixed by shards and lookahead).
type pshape struct {
	n        int
	shards   int
	minDelay float64
}

// pflight is one in-flight message on a shard: enough state to deliver
// and to decide, at delivery time, whether the edge survived the flight.
type pflight struct {
	from, to int32
	value    float64
	sentAt   float64
}

// pshard is one shard's transport state: a pooled flight arena plus the
// delivery callback and scratch buffers. A shard's state is touched only
// by its own engine's events, by the cross-merge/global phases (which
// run with shards stopped), or at wiring time — never concurrently.
type pshard struct {
	ps        *ParallelSim
	idx       int
	en        *des.Engine
	flights   []pflight
	free      []uint32
	deliverFn des.ArgHandler
	nbuf      []int
	stats     transport.Stats
	// fstats accumulates this shard's message-fault verdicts; merging
	// per-shard stats is order-independent (counter sums, max time), so
	// the merged report stays worker-invariant.
	fstats fault.Stats
}

func (sh *pshard) alloc() uint32 {
	if k := len(sh.free); k > 0 {
		fi := sh.free[k-1]
		sh.free = sh.free[:k-1]
		return fi
	}
	sh.flights = append(sh.flights, pflight{})
	return uint32(len(sh.flights) - 1)
}

// send accepts a value from node `from` (owned by this shard) toward
// `to`, applying the fault plan (if any) before the normal path. Fault
// verdicts come from the sender's private stream in the sender's local
// send order — the same discipline as delay draws — so faulted runs
// stay worker-invariant.
func (sh *pshard) send(from, to int, value float64) {
	if ps := sh.ps; ps.msgPlan != nil {
		v := ps.msgPlan.Draw(from, sh.en.Now(), &sh.fstats)
		if v.Drop {
			// The sender paid for the message; the fault plan ate it.
			sh.stats.Sent++
			return
		}
		sh.sendOne(from, to, value, v.Delay)
		if v.Dup {
			sh.sendOne(from, to, value, 0)
		}
		return
	}
	sh.sendOne(from, to, value, 0)
}

// sendOne draws the delay from the sender's stream and routes the
// delivery to the destination's shard: an engine event here when `to`
// is local, a cross-shard outbox message otherwise. spikedDelay, when
// positive, is a fault-injected delay beyond MaxDelay (it still clears
// the lookahead floor, so spiked cross-shard deliveries stay safe); 0
// draws from the nominal law.
func (sh *pshard) sendOne(from, to int, value float64, spikedDelay float64) {
	ps := sh.ps
	now := sh.en.Now()
	d := spikedDelay
	if d == 0 {
		r := &ps.delayRands[from]
		// Delay in (MinDelay, MaxDelay]: the floor is the engine lookahead,
		// so every cross-shard delivery lands beyond the current safe window.
		d = ps.Cfg.MinDelay + (ps.Cfg.MaxDelay-ps.Cfg.MinDelay)*(1-r.Float64())
	}
	deliverAt := now + d
	sh.stats.Sent++
	dst := int(ps.shardOf[to])
	if dst == sh.idx {
		fi := sh.alloc()
		sh.flights[fi] = pflight{from: int32(from), to: int32(to), value: value, sentAt: now}
		sh.en.ScheduleArg(deliverAt, "psim.deliver", sh.deliverFn, uint64(fi))
		return
	}
	ps.P.SendCross(sh.idx, dst, des.CrossMsg{
		DeliverAt: deliverAt,
		W0:        uint64(uint32(from))<<32 | uint64(uint32(to)),
		W1:        math.Float64bits(now),
		W2:        math.Float64bits(value),
	})
}

// deliver hands flight fi to its destination node unless the edge was
// absent at any point of the flight (the paper's drop rule, checked
// against the graph's recorded history — an edge removed and re-added
// mid-flight still loses the message).
func (sh *pshard) deliver(fi uint32) {
	f := sh.flights[fi]
	sh.free = append(sh.free, fi)
	ps := sh.ps
	e := dyngraph.E(int(f.from), int(f.to))
	if !ps.Graph.ExistsThroughout(e, f.sentAt, sh.en.Now()) {
		sh.stats.Dropped++
		return
	}
	sh.stats.Delivered++
	ps.Nodes[f.to].OnMessage(int(f.from), f.value)
}

// broadcast sends value from `from` to every current neighbor, in
// ascending order (the deterministic fan-out order fixes the sender's
// delay draw order).
func (sh *pshard) broadcast(from int, value float64) int {
	sh.nbuf = sh.ps.Graph.AppendNeighbors(from, sh.nbuf[:0])
	for _, v := range sh.nbuf {
		sh.send(from, v, value)
	}
	return len(sh.nbuf)
}

// unicast sends value over one present edge (neighbor discovery's
// immediate beacon); a send over an absent edge is refused.
func (sh *pshard) unicast(from, to int, value float64) bool {
	if !sh.ps.Graph.Present(dyngraph.E(from, to)) {
		sh.stats.Refused++
		return false
	}
	sh.send(from, to, value)
	return true
}

// psender and ptopo are the parallel engine's seam implementations:
// sends route to the sending node's shard (each node only ever sends
// from its own shard's window, so shard-local state stays single-
// threaded), and neighbor scans read the shared graph — which global
// phases alone mutate, so window-time reads are race-free. Both
// indirect through the ParallelSim because build wires nodes before
// the graph exists.
type psender struct{ ps *ParallelSim }

func (p psender) Broadcast(from int, value float64) int {
	return p.ps.shardFor(from).broadcast(from, value)
}

func (p psender) Send(from, to int, value float64) bool {
	return p.ps.shardFor(from).unicast(from, to, value)
}

type ptopo struct{ ps *ParallelSim }

func (p ptopo) AppendNeighbors(u int, buf []int) []int {
	return p.ps.Graph.AppendNeighbors(u, buf)
}

func (sh *pshard) reset() {
	sh.flights = sh.flights[:0]
	sh.free = sh.free[:0]
	sh.stats = transport.Stats{}
	sh.fstats = fault.Stats{}
}

// NewParallel wires a parallel simulation from the config without
// running it. The config must have Parallel set.
func NewParallel(cfg Config) *ParallelSim {
	ps := &ParallelSim{}
	ps.setup(ps.observeScan)
	ps.wire(cfg)
	return ps
}

// Reset rewires the simulation in place for cfg, reusing engines, graph
// storage, flight arenas, and per-node objects when the (N, Shards,
// MinDelay) shape is unchanged. After Reset the simulation behaves
// exactly like NewParallel(cfg): executions are bit-identical.
func (ps *ParallelSim) Reset(cfg Config) { ps.wire(cfg) }

func (ps *ParallelSim) shardFor(i int) *pshard { return ps.shards[ps.shardOf[i]] }

func (ps *ParallelSim) wire(cfg Config) {
	cfg = ps.begin(cfg)
	if !cfg.Parallel {
		panic("sim: NewParallel requires Config.Parallel")
	}
	if shape := (pshape{n: cfg.N, shards: cfg.Shards, minDelay: cfg.MinDelay}); ps.P == nil || shape != ps.shape {
		ps.build(cfg)
		ps.shape = shape
	} else {
		ps.P.Reset()
		for _, sh := range ps.shards {
			sh.reset()
		}
	}
	// The graph comes after the engines and nodes: on a cold 4096-node
	// wiring this order measured ~13% faster than graph-first (2-vCPU
	// host), the difference being garbage-collector work during wiring.
	ps.resetGraph()
	ps.global = ps.P.Global()

	ps.root.ForkInto(0xde1a9, &ps.delayRoot)
	for i := 0; i < cfg.N; i++ {
		ps.delayRoot.ForkInto(uint64(i), &ps.delayRands[i])
	}
	ps.msgPlan = ps.wireRun()
}

// build constructs the engine set and every per-node object for a new
// shape. Clocks bind to their shard's engine at construction, so a
// shape change cannot reuse them.
func (ps *ParallelSim) build(cfg Config) {
	ps.P = des.NewParallelEngine(cfg.Shards, cfg.MinDelay)
	ps.shardOf = make([]int32, cfg.N)
	ps.shards = make([]*pshard, cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		sh := &pshard{ps: ps, idx: s, en: ps.P.Shard(s)}
		sh.deliverFn = func(arg uint64) { sh.deliver(uint32(arg)) }
		ps.shards[s] = sh
	}
	for i := 0; i < cfg.N; i++ {
		// Block partition: contiguous node ranges, so ring/grid topologies
		// keep almost all edges shard-internal.
		ps.shardOf[i] = int32(i * cfg.Shards / cfg.N)
	}
	// Shard block boundaries for the sample scan: first node of each
	// shard, with a backward min-pass so an empty shard (Shards > N)
	// collapses to a zero-width range.
	ps.shardStart = make([]int32, cfg.Shards+1)
	for s := 0; s <= cfg.Shards; s++ {
		ps.shardStart[s] = int32(cfg.N)
	}
	for i := cfg.N - 1; i >= 0; i-- {
		ps.shardStart[ps.shardOf[i]] = int32(i)
	}
	for s := cfg.Shards - 1; s >= 0; s-- {
		if ps.shardStart[s] > ps.shardStart[s+1] {
			ps.shardStart[s] = ps.shardStart[s+1]
		}
	}
	ps.sampleLo = make([]float64, cfg.Shards)
	ps.sampleHi = make([]float64, cfg.Shards)
	ps.sampleWorker = func() {
		defer ps.sampleWG.Done()
		for {
			s := int(ps.sampleNext.Add(1) - 1)
			if s >= len(ps.shards) {
				return
			}
			ps.observeShard(s)
		}
	}
	ps.P.SetCrossHandler(func(dst int, m des.CrossMsg) {
		sh := ps.shards[dst]
		fi := sh.alloc()
		sh.flights[fi] = pflight{
			from:   int32(m.W0 >> 32),
			to:     int32(uint32(m.W0)),
			value:  math.Float64frombits(m.W2),
			sentAt: math.Float64frombits(m.W1),
		}
		sh.en.ScheduleArg(m.DeliverAt, "psim.deliver", sh.deliverFn, uint64(fi))
	})

	ps.delayRands = make([]des.Rand, cfg.N)
	ps.clocks, ps.nodes, ps.drivers = ps.clocks[:0], ps.nodes[:0], ps.drivers[:0]
	ps.grow(cfg.N, func(i int) *des.Engine { return ps.P.Shard(int(ps.shardOf[i])) }, psender{ps}, ptopo{ps})
}

// parallelSampleMinNodes gates the concurrent sample scan: below this
// node count the serial scan wins (and the tight allocs/op pins of the
// small-N benches stay intact — spawning sample workers costs a few
// allocations per sample). Tests lower it to force the concurrent path.
var parallelSampleMinNodes = 4096

// observeShard scans shard s's node block, filling the shared value
// slice (disjoint index ranges per shard) and the shard's partial
// extrema. Safe to run concurrently across shards: at the sample
// instant every shard is barriered, so clock reads are consistent and
// nothing else touches vals.
func (ps *ParallelSim) observeShard(s int) {
	ps.sampleLo[s], ps.sampleHi[s] = ps.scanRange(int(ps.shardStart[s]), int(ps.shardStart[s+1]))
}

// observeScan computes the sample's global extrema and fills vals.
// Large runs with multiple workers scan shard blocks concurrently and
// merge the per-shard partials in fixed shard order — float min/max is
// exact and the blocks tile the index range, so the result is
// bit-identical to the serial left-to-right scan it replaces (which was
// the last O(n) serial stretch on the sampling path).
func (ps *ParallelSim) observeScan() (lo, hi float64) {
	if ps.runWorkers > 1 && len(ps.Nodes) >= parallelSampleMinNodes {
		w := min(ps.runWorkers, len(ps.shards))
		ps.sampleNext.Store(0)
		ps.sampleWG.Add(w)
		for k := 0; k < w; k++ {
			go ps.sampleWorker()
		}
		ps.sampleWG.Wait()
	} else {
		for s := range ps.shards {
			ps.observeShard(s)
		}
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for s := range ps.shards {
		if ps.sampleLo[s] < lo {
			lo = ps.sampleLo[s]
		}
		if ps.sampleHi[s] > hi {
			hi = ps.sampleHi[s]
		}
	}
	return lo, hi
}

// Run executes the scenario to its horizon and returns the report. Like
// the serial Run it is idempotent; the report is a pure function of the
// Config — Workers only decides how many goroutines execute the shard
// windows.
func (ps *ParallelSim) Run() SkewReport {
	ps.startSampling()
	workers := ps.Cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ps.runWorkers = workers
	ps.P.Run(ps.Cfg.Horizon, workers)

	// Per-shard folds in fixed shard order; counter sums and Merge are
	// order-independent anyway, so the result is worker-invariant.
	var ts transport.Stats
	var fs fault.Stats
	for _, sh := range ps.shards {
		ts.Sent += sh.stats.Sent
		ts.Delivered += sh.stats.Delivered
		ts.Dropped += sh.stats.Dropped
		ts.Refused += sh.stats.Refused
		fs.Merge(sh.fstats)
	}
	return ps.finish(ts, ps.P.Executed(), fs)
}
