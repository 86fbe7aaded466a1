package sim

// Engine microbenchmarks: every benchmark executes exactly one event
// per iteration, so ns/op is ns/event and allocs/op is allocs/event,
// and events/sec = 1e9 / (ns/op). scripts/bench.sh parses these into
// BENCH_sim.json. The BenchmarkReference* twins run the same pattern on
// the original container/heap scheduler — the baseline the bucketed
// engine must beat ≥2× on the steady-state path.

import "testing"

// warmup queues more events at once than any benchmark below keeps
// pending, so the event slab has reached its steady-state size before
// measurement: the engine's hot path is allocation-free only once
// warmed, exactly like a long simulation, where freed slots are reused.
func warmup(e *Engine) {
	for i := 0; i < 2*ringSize; i++ {
		e.Schedule(Time(i%64)+1, func(Time) {})
	}
	e.Run()
}

// BenchmarkEngineSteadyState is the hottest real pattern: a
// self-rescheduling +1-cycle tick, the shape of the SM issue loop.
func BenchmarkEngineSteadyState(b *testing.B) {
	e := New()
	warmup(e)
	n := 0
	var tick Event
	tick = func(Time) {
		n++
		if n < b.N {
			e.Schedule(1, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Schedule(1, tick)
	e.Run()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "events/sec")
	}
}

func BenchmarkReferenceEngineSteadyState(b *testing.B) {
	e := NewReference()
	n := 0
	var tick Event
	tick = func(Time) {
		n++
		if n < b.N {
			e.Schedule(1, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Schedule(1, tick)
	e.Run()
}

// BenchmarkEngineMixedDelays schedules bursts across a spread of small
// constant delays — the cache/NoC/DRAM latency mix — and drains them.
func BenchmarkEngineMixedDelays(b *testing.B) {
	e := New()
	warmup(e)
	delays := [8]Time{1, 12, 28, 64, 96, 100, 128, 200}
	fn := Event(func(Time) {})
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		burst := 512
		if b.N-done < burst {
			burst = b.N - done
		}
		for i := 0; i < burst; i++ {
			e.Schedule(delays[i&7], fn)
		}
		e.Run()
		done += burst
	}
}

func BenchmarkReferenceEngineMixedDelays(b *testing.B) {
	e := NewReference()
	delays := [8]Time{1, 12, 28, 64, 96, 100, 128, 200}
	fn := Event(func(Time) {})
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		burst := 512
		if b.N-done < burst {
			burst = b.N - done
		}
		for i := 0; i < burst; i++ {
			e.Schedule(delays[i&7], fn)
		}
		e.Run()
		done += burst
	}
}

// BenchmarkEngineSameCycleFIFO measures the zero-delay FIFO path: many
// events piling onto the current cycle (warp wakeups, MSHR fanout).
func BenchmarkEngineSameCycleFIFO(b *testing.B) {
	e := New()
	warmup(e)
	fn := Event(func(Time) {})
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		burst := 256
		if b.N-done < burst {
			burst = b.N - done
		}
		for i := 0; i < burst; i++ {
			e.Schedule(0, fn)
		}
		e.Run()
		done += burst
	}
}

// BenchmarkEngineScheduleArg measures the pooled typed-event path used
// by the SM warp wakeups: one long-lived ArgEvent, varying arg.
func BenchmarkEngineScheduleArg(b *testing.B) {
	e := New()
	warmup(e)
	sink := 0
	fn := ArgEvent(func(_ Time, arg int) { sink += arg })
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		burst := 256
		if b.N-done < burst {
			burst = b.N - done
		}
		for i := 0; i < burst; i++ {
			e.ScheduleArg(Time(i&31)+1, fn, i&63)
		}
		e.Run()
		done += burst
	}
}

// BenchmarkEngineFarFuture measures the overflow-heap path: every delay
// beyond the ring window (policy samplers, deep backlogs).
func BenchmarkEngineFarFuture(b *testing.B) {
	e := New()
	fn := Event(func(Time) {})
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		burst := 256
		if b.N-done < burst {
			burst = b.N - done
		}
		for i := 0; i < burst; i++ {
			e.Schedule(ringSize+Time(i&1023), fn)
		}
		e.Run()
		done += burst
	}
}

func BenchmarkReferenceEngineFarFuture(b *testing.B) {
	e := NewReference()
	fn := Event(func(Time) {})
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		burst := 256
		if b.N-done < burst {
			burst = b.N - done
		}
		for i := 0; i < burst; i++ {
			e.Schedule(ringSize+Time(i&1023), fn)
		}
		e.Run()
		done += burst
	}
}
