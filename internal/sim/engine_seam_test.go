package sim

import (
	"math/rand"
	"testing"
)

// seamProg is a random event program that keeps thousands of events
// pending at once, spread over most ring buckets and the far heap.
// Every fired event records itself and schedules one more on average
// (none, one or two) while its budget lasts, so the population holds
// steady and executing one bucket frees slab slots while others fill. Absolute
// times on a coarse grid put many far events on the same cycle, so heap
// migration appends to buckets it has already partly filled, and later
// direct inserts join those buckets behind the migrated events.
type seamProg struct {
	eng    schedulerAPI
	rng    *rand.Rand
	trace  []traceEntry
	nextID int
	budget int // events still to be scheduled from callbacks
	epoch  int // bumped by Reset; an older epoch's callback must never run
	stale  bool
	peak   int // highest Pending seen after any insert
}

func (p *seamProg) schedule() {
	id, epoch := p.nextID, p.epoch
	p.nextID++
	fire := func(now Time) {
		if epoch != p.epoch {
			p.stale = true
		}
		p.trace = append(p.trace, traceEntry{id: id, at: now})
		for k := [8]int{0, 1, 1, 1, 1, 1, 1, 2}[p.rng.Intn(8)]; k > 0 && p.budget > 0; k-- {
			p.budget--
			p.schedule()
		}
	}
	now := p.eng.Now()
	switch p.rng.Intn(10) {
	case 0, 1, 2, 3:
		p.eng.Schedule(Time(p.rng.Intn(256)), fire)
	case 4:
		p.eng.Schedule(0, fire)
	case 5: // straddles the window edge
		p.eng.Schedule(ringSize-8+Time(p.rng.Intn(16)), fire)
	case 6, 7: // 64-cycle grid up to three windows ahead
		p.eng.At((now/64+1+Time(p.rng.Intn(3*ringSize/64)))*64, fire)
	case 8:
		p.eng.ScheduleArg(Time(p.rng.Intn(2*ringSize)), func(now Time, arg int) { fire(now) }, id)
	default:
		p.eng.AtThunk(now+Time(p.rng.Intn(ringSize)), func() { fire(p.eng.Now()) })
	}
	if n := p.eng.Pending(); n > p.peak {
		p.peak = n
	}
}

// run seeds 4000 events, drains in uneven RunUntil slices, resets the
// engine once mid-run with thousands of events still queued, and then
// runs a fresh batch on the reused engine to completion.
func (p *seamProg) run(t *testing.T) {
	t.Helper()
	p.budget = 60000
	for i := 0; i < 4000; i++ {
		p.schedule()
	}
	reset := false
	for d := Time(50); !p.eng.RunUntil(d); d += d/4 + 37 {
		if !reset && d > 6*ringSize {
			reset = true
			if p.eng.Pending() < 1000 {
				t.Fatalf("only %d events pending at the reset point; the test no longer resets a busy engine", p.eng.Pending())
			}
			p.eng.Reset()
			p.epoch++
			if e, ok := p.eng.(*Engine); ok {
				checkReleased(t, e)
			}
			p.budget = 20000
			for i := 0; i < 2000; i++ {
				p.schedule()
			}
		}
	}
	if !reset {
		t.Fatal("the program drained before the reset point")
	}
	if p.stale {
		t.Fatal("an event queued before Reset ran after it")
	}
}

// checkReleased fails t if any slab slot or far-heap slot, in use or
// not, still references a callback after Reset.
func checkReleased(t *testing.T, e *Engine) {
	t.Helper()
	if e.Pending() != 0 || e.free != 0 {
		t.Fatalf("Reset left pending=%d free=%d", e.Pending(), e.free)
	}
	for _, s := range [][]scheduled{e.slab[:cap(e.slab)], e.far[:cap(e.far)]} {
		for i := range s {
			if s[i].fn != nil || s[i].tfn != nil || s[i].afn != nil {
				t.Fatalf("slot %d still holds a callback after Reset", i)
			}
		}
	}
}

// TestEngineSeamsMatchReference differential-tests the slab-backed
// engine against ReferenceEngine on busy programs: thousands of events
// pending across many buckets, slab slots freed by one bucket and
// reused by another, ring wrap, far-heap migration into partly filled
// buckets, and a Reset in the middle of a run.
func TestEngineSeamsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		e := New()
		got := &seamProg{eng: e, rng: rand.New(rand.NewSource(seed))}
		want := &seamProg{eng: NewReference(), rng: rand.New(rand.NewSource(seed))}
		got.run(t)
		want.run(t)
		checkReleasedFree(t, e)
		diffTraces(t, nil, got.trace, want.trace)
		if e.Now() != want.eng.Now() || e.Executed() != want.eng.Executed() {
			t.Fatalf("seed %d: clock %d executed %d, reference %d / %d",
				seed, e.Now(), e.Executed(), want.eng.Now(), want.eng.Executed())
		}
		if e.Now() < 4*ringSize {
			t.Fatalf("seed %d: clock stopped at %d; the ring never wrapped after the reset", seed, e.Now())
		}
		// Slots are recycled: the slab never outgrows the peak number of
		// queued events, far below the events scheduled after the reset.
		if len(e.slab) > got.peak || 2*got.peak > len(got.trace) {
			t.Fatalf("seed %d: slab %d slots for peak %d pending and %d events run", seed, len(e.slab), got.peak, len(got.trace))
		}
	}
}

// TestEngineSlotReuseAcrossBuckets pins the free list directly: a slot
// freed by one cycle's bucket is the next one handed out, to whichever
// bucket inserts next.
func TestEngineSlotReuseAcrossBuckets(t *testing.T) {
	e := New()
	ran := 0
	e.Schedule(1, func(Time) { ran++ })
	e.Run()
	e.Schedule(5, func(Time) { ran++ })
	e.Schedule(ringSize-1, func(Time) { ran++ })
	if len(e.slab) != 2 {
		t.Fatalf("slab grew to %d slots for 2 pending events", len(e.slab))
	}
	if h := e.ring[(e.now+5)&ringMask].head; h != 1 {
		t.Fatalf("bucket of cycle %d starts at slot %d, want the freed slot 1", e.now+5, h)
	}
	e.Run()
	if ran != 3 || e.free == 0 {
		t.Fatalf("ran %d events, free list head %d", ran, e.free)
	}
	checkReleasedFree(t, e)
}

// checkReleasedFree fails t if a slot on the free list still references
// a callback.
func checkReleasedFree(t *testing.T, e *Engine) {
	t.Helper()
	for i := e.free; i != 0; i = e.next[i-1] {
		s := &e.slab[i-1]
		if s.fn != nil || s.tfn != nil || s.afn != nil {
			t.Fatalf("free slot %d still holds a callback", i)
		}
	}
}
