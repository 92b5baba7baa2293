package gcs

import (
	"math"
	"testing"

	"gcs/internal/clock"
	"gcs/internal/des"
	"gcs/internal/dyngraph"
	"gcs/internal/transport"
)

// pair wires two nodes over a single static edge with a fixed-delay
// transport, returning the engine and both nodes. The network and graph
// plug straight into the seam (transport.Network is the seam.Sender,
// dyngraph.Dynamic the seam.Topology).
func pair(t *testing.T, p Params, rate0, rate1, delay float64) (*des.Engine, []*Node) {
	t.Helper()
	en, _, nodes := pairNet(p, rate0, rate1, delay)
	return en, nodes
}

// pairNet is pair that also returns the network, for tests that inject
// traffic directly.
func pairNet(p Params, rate0, rate1, delay float64) (*des.Engine, *transport.Network, []*Node) {
	en := des.NewEngine()
	g := dyngraph.NewDynamic(2, []dyngraph.Edge{dyngraph.E(0, 1)})
	net := transport.New(en, g, transport.FixedDelay(delay), delay)
	nodes := make([]*Node, 2)
	for i, rate := range []float64{rate0, rate1} {
		i := i
		hw := clock.New(en, rate)
		nodes[i] = New(i, hw, p, net, g)
		net.SetHandler(i, func(m transport.Message) {
			nodes[i].OnMessage(m.From, m.Value)
		})
	}
	return en, net, nodes
}

// solo builds an isolated node (no transport) on a fresh engine.
func solo(p Params) (*des.Engine, *clock.HardwareClock, *Node) {
	en := des.NewEngine()
	hw := clock.New(en, 1)
	return en, hw, New(0, hw, p, nil, nil)
}

// nbrs is a fixed neighbor set: the seam.Topology for isolated unit
// tests that need a neighborhood without a graph.
type nbrs []int

func (s nbrs) AppendNeighbors(_ int, buf []int) []int { return append(buf, s...) }

func TestTwoNodesConvergeUnderMaxRule(t *testing.T) {
	p := Params{Rho: 0.05, MaxDelay: 0.01, BeaconEvery: 0.1, JumpThreshold: 0}
	en, nodes := pair(t, p, 1.05, 0.95, 0.01)
	nodes[0].Start(0)
	nodes[1].Start(0.05)
	en.Run(20)
	l0, l1 := nodes[0].Logical(), nodes[1].Logical()
	skew := math.Abs(l0 - l1)
	// One beacon interval of real time plus a delay bounds the staleness;
	// the fast clock gains at most (1+rho) over that window.
	bound := (1 + p.Rho) * (p.BeaconEvery/(1-p.Rho) + p.MaxDelay)
	if skew > bound {
		t.Fatalf("steady-state skew %v exceeds bound %v (L0=%v L1=%v)", skew, bound, l0, l1)
	}
	// The slow node must have jumped repeatedly to track the fast one.
	if nodes[1].Snap().Jumps == 0 {
		t.Fatal("slow node never jumped despite lagging")
	}
}

func TestLogicalNeverDecreasesAndDominatesHardware(t *testing.T) {
	p := Params{Rho: 0.05, MaxDelay: 0.01, BeaconEvery: 0.07}
	en, nodes := pair(t, p, 1.05, 0.95, 0.008)
	nodes[0].Start(0)
	nodes[1].Start(0.03)
	prev := []float64{0, 0}
	for step := 1; step <= 100; step++ {
		en.Run(float64(step) * 0.2)
		for i, nd := range nodes {
			l := nd.Logical()
			if l < prev[i]-1e-12 {
				t.Fatalf("node %d logical clock decreased: %v -> %v", i, prev[i], l)
			}
			if l < nd.Clock().Now()-1e-12 {
				t.Fatalf("node %d logical %v below hardware %v", i, l, nd.Clock().Now())
			}
			prev[i] = l
		}
	}
}

func TestJumpRuleSetsClockToMaxEstimate(t *testing.T) {
	en := des.NewEngine()
	hw := clock.New(en, 1)
	nd := New(0, hw, Params{Rho: 0.01, JumpThreshold: 0}, nil, nil)
	en.Schedule(1, "inject", func() { nd.OnMessage(7, 50) })
	en.Run(1)
	if got := nd.Logical(); got != 50 {
		t.Fatalf("logical after hearing 50 = %v, want 50", got)
	}
	s := nd.Snap()
	if s.Jumps != 1 || s.Messages != 1 {
		t.Fatalf("snapshot = %+v, want 1 jump and 1 message", s)
	}
	if s.MaxEstimate != 50 {
		t.Fatalf("max estimate = %v, want 50", s.MaxEstimate)
	}
}

func TestFastModeCatchesUpAtFastRate(t *testing.T) {
	en := des.NewEngine()
	hw := clock.New(en, 1)
	// Jumps disabled: all catch-up must happen at the fast rate.
	p := Params{Rho: 0.01, BeaconEvery: 0.1, Kappa: 0.5, Mu: 1,
		JumpThreshold: math.Inf(1)}
	nd := New(0, hw, p, nil, nbrs{1})
	en.Schedule(1, "inject", func() { nd.OnMessage(1, 11) })
	en.Run(1)
	if !nd.Snap().Fast {
		t.Fatal("node not in fast mode despite neighbor 10 ahead")
	}
	if nd.Snap().Jumps != 0 {
		t.Fatal("node jumped with JumpThreshold = +Inf")
	}
	// At rate (1+Mu) = 2 the 10-unit gap closes in ~10 units of time
	// (the estimate ages forward too, but slower than the catch-up).
	en.Run(25)
	s := nd.Snap()
	if s.Fast {
		t.Fatalf("node still fast after catch-up window: %+v", s)
	}
	gap := s.MaxEstimate - s.Logical
	if gap > p.Kappa {
		t.Fatalf("residual gap %v exceeds Kappa %v", gap, p.Kappa)
	}
	if s.Logical < 20 {
		t.Fatalf("logical %v shows no fast-rate progress", s.Logical)
	}
}

func TestFastModeOnlyTriggersOnCurrentNeighbors(t *testing.T) {
	en := des.NewEngine()
	hw := clock.New(en, 1)
	p := Params{Rho: 0.01, Kappa: 0.5, JumpThreshold: math.Inf(1)}
	// Node 1 is not in the neighbor set: its huge value must not trigger
	// fast mode (it is stale information from a vanished edge).
	nd := New(0, hw, p, nil, nbrs{2})
	en.Schedule(1, "inject", func() { nd.OnMessage(1, 1000) })
	en.Run(2)
	if nd.Snap().Fast {
		t.Fatal("fast mode triggered by a non-neighbor estimate")
	}
}

func TestEstimateAgingIsConservative(t *testing.T) {
	en := des.NewEngine()
	hw := clock.New(en, 1)
	p := Params{Rho: 0.1, JumpThreshold: math.Inf(1), Kappa: 1}
	nd := New(0, hw, p, nil, nil)
	nd.OnMessage(1, 5)
	en.Run(10)
	// After 10 units at local rate 1, the estimate must have aged by
	// exactly 10*(1-rho)/(1+rho) — the guaranteed minimum remote progress.
	want := 5 + 10*(1-p.Rho)/(1+p.Rho)
	if got := nd.Snap().MaxEstimate; math.Abs(got-want) > 1e-9 {
		t.Fatalf("aged estimate = %v, want %v", got, want)
	}
}

func TestBeaconCadenceIsSubjective(t *testing.T) {
	// A clock at rate 2 beacons twice as often per unit real time.
	en := des.NewEngine()
	fast := New(0, clock.New(en, 2), Params{Rho: 0.01, BeaconEvery: 0.5}, nil, nil)
	slow := New(1, clock.New(en, 1), Params{Rho: 0.01, BeaconEvery: 0.5}, nil, nil)
	fast.Start(0)
	slow.Start(0)
	en.Run(10)
	fb, sb := fast.Snap().Beacons, slow.Snap().Beacons
	if fb < 2*sb-2 || fb > 2*sb+2 {
		t.Fatalf("beacon counts fast=%d slow=%d; want ~2x ratio", fb, sb)
	}
}

// TestNodeResetClearsState pins the arena-reuse contract: after a
// hardware-clock and node reset the node is indistinguishable from a
// freshly constructed one — counters zero, no estimates, logical clock
// rebased to the fresh hardware reading.
func TestNodeResetClearsState(t *testing.T) {
	p := Params{Rho: 0.01, MaxDelay: 0.01, BeaconEvery: 0.1, JumpThreshold: 0}
	en, hw, nd := solo(p)
	nd.Start(0)
	en.Run(1)
	nd.OnMessage(1, 50)
	if s := nd.Snap(); s.Jumps == 0 || s.Beacons == 0 {
		t.Fatalf("warm-up execution degenerate: %+v", s)
	}

	en.Reset()
	hw.Reset(1)
	nd.Reset(p)
	s := nd.Snap()
	if s.Logical != 0 || s.Hardware != 0 || s.Messages != 0 || s.Jumps != 0 ||
		s.Beacons != 0 || s.Discoveries != 0 || s.Fast || !math.IsInf(s.MaxEstimate, -1) {
		t.Fatalf("reset node retains state: %+v", s)
	}
	// The node runs normally after reset.
	nd.Start(0)
	en.Run(1)
	if s := nd.Snap(); s.Beacons == 0 || s.Logical <= 0 {
		t.Fatalf("node inert after reset: %+v", s)
	}
}
