package main

import (
	"time"

	"gcs/internal/clock"
	"gcs/internal/des"
	"gcs/internal/transport"
)

// microOps is the operation count of one standalone measurement; three
// measurements are taken and the median reported.
const microOps = 1 << 20

// holdNs is the host time of one hold operation (Step the earliest
// event, whose handler schedules one new event a delay later) on a
// standalone engine kept at depth pending events, with delays drawn
// from the workload's law on (minDelay, maxDelay].
func holdNs(depth, minDelay, maxDelay float64) float64 {
	n := max(int(depth+0.5), 1)
	en := des.NewEngine()
	delay := transport.UniformDelayIn(minDelay, maxDelay, des.NewRand(7))
	var hold des.ArgHandler
	hold = func(uint64) { en.ScheduleAfterArg(delay(nil), "hold", hold, 0) }
	for i := 0; i < n; i++ {
		en.ScheduleArg(delay(nil), "hold", hold, 0)
	}
	for i := 0; i < n; i++ { // one full turnover mixes the queue
		en.Step()
	}
	return medianNs(func() {
		for i := 0; i < microOps; i++ {
			en.Step()
		}
	})
}

// timerNs is the host time of one subjective-timer cycle on a
// standalone clock: a rate change (which re-arms the head event), then
// one engine step firing a timer whose callback sets the next one. Two
// periodic timers stand for a node's beacon and catch-up timers.
func timerNs() float64 {
	en := des.NewEngine()
	c := clock.New(en, 1)
	var beacon, catchup func()
	beacon = func() { c.SetTimer(0.01, "gcs.beacon", beacon) }
	catchup = func() { c.SetTimer(0.013, "gcs.catchup", catchup) }
	beacon()
	catchup()
	rates := [2]float64{0.995, 1.005}
	return medianNs(func() {
		for i := 0; i < microOps; i++ {
			c.SetRate(rates[i&1])
			en.Step()
		}
	})
}

// medianNs times three calls of loop and returns the median per
// operation, in nanoseconds.
func medianNs(loop func()) float64 {
	ns := make([]float64, 3)
	for i := range ns {
		start := time.Now()
		loop()
		ns[i] = float64(time.Since(start).Nanoseconds()) / microOps
	}
	return median(ns)
}
