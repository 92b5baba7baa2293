package fault

import (
	"math"
	"reflect"
	"testing"

	"gcs/internal/des"
)

func TestSpecZeroValueDisabled(t *testing.T) {
	var s Spec
	if s.Enabled() || s.MessageFaults() {
		t.Fatal("zero Spec must be disabled")
	}
	if got := s.WithDefaults(10); got != s {
		t.Fatalf("WithDefaults perturbed a disabled Spec: %+v", got)
	}
	if err := s.Validate(10); err != nil {
		t.Fatalf("zero Spec must validate: %v", err)
	}
}

func TestSpecWithDefaults(t *testing.T) {
	s := Spec{Drop: 0.1, CrashEvery: 2, RateExcursionEvery: 3}.WithDefaults(10)
	if s.SpikeFactor != 4 || s.CrashDowntime != 1 ||
		s.RateExcursionFactor != 3 || s.RateExcursionFor != 0.5 || s.Until != 5 {
		t.Fatalf("defaults not filled: %+v", s)
	}
	if again := s.WithDefaults(10); again != s {
		t.Fatalf("WithDefaults not idempotent: %+v vs %+v", again, s)
	}
	if err := s.Validate(10); err != nil {
		t.Fatalf("defaulted Spec must validate: %v", err)
	}
	// Crash-stop plans need no downtime.
	cs := Spec{CrashEvery: 2, CrashStop: true}.WithDefaults(10)
	if cs.CrashDowntime != 0 {
		t.Fatalf("crash-stop got a downtime default: %+v", cs)
	}
}

func TestSpecValidateRejects(t *testing.T) {
	for name, s := range map[string]Spec{
		"drop>1":        {Drop: 1.5},
		"dup<0":         {Dup: -0.1},
		"spikeNaN":      {DelaySpike: math.NaN()},
		"spikeFactor<1": {DelaySpike: 0.1, SpikeFactor: 0.5},
		"crashEvery<0":  {CrashEvery: -1},
		"noDowntime":    {CrashEvery: 1, CrashDowntime: -2},
		"rateEvery<0":   {RateExcursionEvery: -1},
		"rateFactor<1":  {RateExcursionEvery: 1, RateExcursionFactor: 1, RateExcursionFor: 1},
		"rateForZero":   {RateExcursionEvery: 1, RateExcursionFactor: 2, RateExcursionFor: -1},
		"untilPastEnd":  {Drop: 0.1, SpikeFactor: 4, Until: 20},
		"untilNegative": {Drop: 0.1, SpikeFactor: 4, Until: -1},
	} {
		if err := s.Validate(10); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, s)
		}
	}
}

// drawAll replays n verdicts for one sender on a freshly wired plan.
func drawAll(spec Spec, sender, n int, seed uint64) ([]Verdict, Stats) {
	root := des.NewRand(seed)
	m := NewMessages()
	m.Wire(spec, 0.01, 4, root)
	var st Stats
	out := make([]Verdict, n)
	for k := range out {
		out[k] = m.Draw(sender, 0.1*float64(k), &st)
	}
	return out, st
}

func TestMessagesDeterministicAndCounted(t *testing.T) {
	spec := Spec{Drop: 0.3, Dup: 0.3, DelaySpike: 0.3}.WithDefaults(100)
	a, sa := drawAll(spec, 0, 200, 42)
	b, sb := drawAll(spec, 0, 200, 42)
	if !reflect.DeepEqual(a, b) || sa != sb {
		t.Fatal("same seed produced different verdict sequences")
	}
	if sa.Drops == 0 || sa.Dups == 0 || sa.DelaySpikes == 0 {
		t.Fatalf("aggressive plan injected nothing: %+v", sa)
	}
	if sa.Total() != sa.Drops+sa.Dups+sa.DelaySpikes || sa.LastFaultT <= 0 {
		t.Fatalf("inconsistent stats: %+v", sa)
	}
	c, _ := drawAll(spec, 0, 200, 43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical verdicts")
	}
	// Spiked delays must always exceed the nominal bound, never its cap.
	for _, v := range a {
		if v.Delay != 0 && (v.Delay <= 0.01 || v.Delay > 4*0.01) {
			t.Fatalf("spiked delay %v outside (MaxDelay, 4*MaxDelay]", v.Delay)
		}
		if v.Drop && (v.Dup || v.Delay != 0) {
			t.Fatalf("drop verdict combined with others: %+v", v)
		}
	}
}

// TestMessagesSenderIndependence pins the worker-invariance mechanism:
// sender i's verdict stream depends only on i's own send count, not on
// how other senders' draws interleave with it.
func TestMessagesSenderIndependence(t *testing.T) {
	spec := Spec{Drop: 0.5}.WithDefaults(100)
	solo, _ := drawAll(spec, 1, 50, 7)

	root := des.NewRand(7)
	m := NewMessages()
	m.Wire(spec, 0.01, 4, root)
	var st Stats
	interleaved := make([]Verdict, 50)
	for k := range interleaved {
		m.Draw(0, 0.1*float64(k), &st) // noise from another sender
		interleaved[k] = m.Draw(1, 0.1*float64(k), &st)
		m.Draw(2, 0.1*float64(k), &st)
	}
	if !reflect.DeepEqual(solo, interleaved) {
		t.Fatal("sender 1's verdicts changed when other senders drew in between")
	}
}

func TestMessagesRespectUntil(t *testing.T) {
	spec := Spec{Drop: 1, Until: 1}.WithDefaults(100)
	root := des.NewRand(1)
	m := NewMessages()
	m.Wire(spec, 0.01, 2, root)
	var st Stats
	if v := m.Draw(0, 0.5, &st); !v.Drop {
		t.Fatal("certain drop not applied inside the window")
	}
	if v := m.Draw(0, 1.5, &st); v != (Verdict{}) {
		t.Fatalf("verdict %+v injected after Until", v)
	}
	if st.Drops != 1 {
		t.Fatalf("Drops = %d, want 1", st.Drops)
	}
}

func TestStatsMergeOrderIndependent(t *testing.T) {
	a := Stats{Drops: 1, Crashes: 2, LastFaultT: 3}
	b := Stats{Dups: 4, Recoveries: 5, LastFaultT: 7}
	c := Stats{DelaySpikes: 6, RateExcursions: 8, LastFaultT: 5}
	ab := a
	ab.Merge(b)
	ab.Merge(c)
	cb := c
	cb.Merge(b)
	cb.Merge(a)
	if ab != cb {
		t.Fatalf("merge order changed the result: %+v vs %+v", ab, cb)
	}
	if ab.LastFaultT != 7 || ab.Total() != 26 {
		t.Fatalf("bad fold: %+v", ab)
	}
}

// injEvent is one observed injector callback.
type injEvent struct {
	kind string
	node int
	t    float64
	rate float64
}

// runInjector executes a plan on a bare engine with recording hooks.
func runInjector(spec Spec, n int, horizon float64, seed uint64) ([]injEvent, Stats, []bool) {
	en := des.NewEngine()
	var events []injEvent
	inj := NewInjector()
	hooks := Hooks{
		Crash:   func(i int) { events = append(events, injEvent{"crash", i, en.Now(), 0}) },
		Recover: func(i int) { events = append(events, injEvent{"recover", i, en.Now(), 0}) },
		SetRate: func(i int, r float64) { events = append(events, injEvent{"rate", i, en.Now(), r}) },
	}
	root := des.NewRand(seed)
	inj.Wire(spec, n, 0.05, root, hooks)
	inj.Install(func(int) des.Scheduler { return en })
	en.Run(horizon)
	down := make([]bool, n)
	copy(down, inj.Down())
	return events, inj.Stats(), down
}

func TestInjectorDeterministicSchedules(t *testing.T) {
	spec := Spec{CrashEvery: 2, CrashDowntime: 0.5, RateExcursionEvery: 2,
		RateExcursionFactor: 3, RateExcursionFor: 0.5, Until: 10}.WithDefaults(20)
	a, sa, _ := runInjector(spec, 8, 20, 11)
	b, sb, _ := runInjector(spec, 8, 20, 11)
	if !reflect.DeepEqual(a, b) || sa != sb {
		t.Fatal("same seed produced different injection schedules")
	}
	if sa.Crashes == 0 || sa.Recoveries == 0 || sa.RateExcursions == 0 {
		t.Fatalf("plan injected nothing: %+v", sa)
	}
	if sa.Recoveries > sa.Crashes {
		t.Fatalf("more recoveries than crashes: %+v", sa)
	}
	for _, e := range a {
		// Onsets obey the injection window; recoveries and excursion ends
		// (rate=1) may conclude past it.
		if (e.kind == "crash" || (e.kind == "rate" && e.rate != 1)) && e.t > spec.Until {
			t.Fatalf("onset after Until: %+v", e)
		}
		// Excursions must leave the [1-rho, 1+rho] band (rho = 0.05).
		if e.kind == "rate" && e.rate != 1 && e.rate > 1-0.05 && e.rate < 1+0.05 {
			t.Fatalf("excursion rate %v inside the drift band", e.rate)
		}
	}
}

func TestInjectorCrashStopNeverRecovers(t *testing.T) {
	spec := Spec{CrashEvery: 1, CrashStop: true, Until: 10}.WithDefaults(20)
	events, st, down := runInjector(spec, 6, 20, 3)
	if st.Crashes == 0 {
		t.Fatal("no crashes with mean 1 over a 10s window")
	}
	if st.Recoveries != 0 {
		t.Fatalf("crash-stop recovered %d times", st.Recoveries)
	}
	crashed := 0
	for _, e := range events {
		if e.kind == "recover" {
			t.Fatalf("recover event under crash-stop: %+v", e)
		}
	}
	for _, d := range down {
		if d {
			crashed++
		}
	}
	if uint64(crashed) != st.Crashes {
		t.Fatalf("down mask shows %d crashed, stats say %d", crashed, st.Crashes)
	}
}

func TestInjectorRewireResets(t *testing.T) {
	spec := Spec{CrashEvery: 1, CrashStop: true, Until: 10}.WithDefaults(20)
	_, first, _ := runInjector(spec, 6, 20, 3)
	// Reusing one injector across runs (the arena pattern) must reproduce
	// a fresh injector bit for bit, including the cleared down mask.
	en := des.NewEngine()
	inj := NewInjector()
	hooks := Hooks{Crash: func(int) {}, Recover: func(int) {}, SetRate: func(int, float64) {}}
	for run := 0; run < 2; run++ {
		en.Reset()
		root := des.NewRand(3)
		inj.Wire(spec, 6, 0.05, root, hooks)
		inj.Install(func(int) des.Scheduler { return en })
		en.Run(20)
		if got := inj.Stats(); got != first {
			t.Fatalf("run %d diverged: %+v vs %+v", run, got, first)
		}
	}
}
