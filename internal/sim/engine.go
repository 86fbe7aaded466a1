// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine advances a virtual cycle clock by executing scheduled events
// in (time, insertion-order) order. All components of the GPU model share
// one engine; the simulation is single-threaded, which makes runs exactly
// reproducible.
//
// Internally the engine is a two-level bucketed calendar queue: a ring
// of per-cycle FIFO buckets covering the near future plus an overflow
// heap for everything beyond it (see the scheduling invariant on
// Engine). The buckets are linked lists threaded through one shared
// event slab whose freed slots are reused, so a warmed-up engine
// schedules without allocating and keeps its queued events packed in
// one array. Nearly every delay in the GPU model is a
// small constant — cache latencies, NoC hops, compute delays — so
// almost all traffic takes the O(1) bucket path. The heap takes the
// 5K-cycle policy samplers and transfer completions queued behind deep
// link or DRAM backlogs: 1.2% of the inserts of a Figure 11 sweep at
// -quick scale (see ringBits).
package sim

// Time is a point in virtual time, measured in clock cycles.
// The system clock is 1GHz, so one cycle is one nanosecond and a
// bandwidth of 1GB/s equals 1 byte/cycle.
type Time uint64

// Event is a callback scheduled to run at a specific virtual time.
type Event func(now Time)

// ArgEvent is an event callback carrying a small integer argument.
// Hot paths that wake per-slot state machines (e.g. warp slots in
// smcore) schedule one long-lived ArgEvent function value with varying
// arguments instead of allocating a fresh closure per event.
type ArgEvent func(now Time, arg int)

// ringBits sizes the near-future ring: 2^ringBits consecutive cycles
// have their own FIFO bucket. Every fixed latency in the model (L1 28,
// L2 96, DRAM 100, link 128, lane turnaround 100…) fits many times
// over; the ring is as wide as it is so that backlogged transfer
// completions, hundreds to thousands of cycles out, stay off the heap.
// Measured over a Figure 11 sweep at -quick scale (99.3M inserts), the
// heap takes 10.6% of inserts at 2^10 cycles, 1.2% at 2^12 and 0.6% at
// 2^13; 2^12 keeps the bucket array at 32 KiB, and the doubled ring
// buys only half a percent more.
const (
	ringBits = 12
	ringSize = 1 << ringBits
	ringMask = ringSize - 1
)

// scheduled is one queued event. Exactly one of fn, tfn, afn is set;
// the three variants exist so call sites can schedule what they already
// hold (an Event, a plain completion func(), or a shared ArgEvent plus
// argument) without wrapping it in a fresh closure.
type scheduled struct {
	at  Time
	seq uint64
	fn  Event
	tfn func()
	afn ArgEvent
	arg int
}

func (s *scheduled) call(now Time) {
	switch {
	case s.fn != nil:
		s.fn(now)
	case s.afn != nil:
		s.afn(now, s.arg)
	default:
		s.tfn()
	}
}

// bucket is the FIFO of one ring cycle: a singly linked list through
// the engine's event slab. head and tail are slab index+1, 0 = empty.
type bucket struct {
	head, tail int32
}

// Engine is a discrete-event scheduler. The zero value is ready to use.
//
// Scheduling invariant: every queued event with time in [now, now+ringSize)
// lives in ring bucket (time & ringMask); every event at or beyond
// now+ringSize lives in the far heap, ordered by (time, seq). Whenever
// the clock advances, far events whose time has entered the window
// migrate into their buckets — in (time, seq) order, and always before
// any event of the new cycle executes — so bucket FIFO order is seq
// order and the global (time, insertion-order) contract holds exactly.
//
// An Engine may keep running across multiple scheduling waves: after
// Run drains the queue, more events can be scheduled and Run called
// again, with the clock continuing from where it stopped. To reuse an
// Engine for an unrelated fresh simulation, call Reset — never rely on
// a drained queue alone, since a RunUntil stop or a stopped Ticker can
// leave events pending that would leak into the next run.
type Engine struct {
	now   Time
	seq   uint64 // stamp of the latest insert; orders events within one cycle
	nRun  uint64
	ringN int // events currently resident in ring buckets
	far   farHeap
	ring  [ringSize]bucket

	// slab holds every ring-resident event; next[i] links slot i to the
	// next event of its bucket (unset for a bucket's tail), or, for a
	// free slot, to the next free slot (index+1, 0 = end). The links sit
	// beside the slab rather than inside each node, which keeps the
	// nodes at 48 bytes. Freed slots are reused LIFO, so a warmed-up
	// engine schedules and executes bucket events with zero
	// allocations, on slots still in the host cache.
	slab []scheduled
	next []int32
	free int32 // first free slot, index+1; 0 = none
}

// New returns a fresh engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Executed reports how many events have run so far; useful for
// performance accounting in benchmarks.
func (e *Engine) Executed() uint64 { return e.nRun }

// Pending reports how many events are waiting to run.
func (e *Engine) Pending() int { return e.ringN + len(e.far) }

// insert queues it at absolute time at (which must be >= e.now).
func (e *Engine) insert(at Time, it scheduled) {
	e.seq++
	seq := e.seq
	if at >= e.now+ringSize {
		it.at, it.seq = at, seq
		e.far.push(it)
		return
	}
	// Stored field by field: a whole-struct copy reads the spilled
	// argument back with wider loads than wrote it, which stalls the
	// host's store forwarding on the hottest line of the simulator.
	s := e.enqueue(&e.ring[at&ringMask])
	s.at, s.seq, s.fn, s.tfn, s.afn, s.arg = at, seq, it.fn, it.tfn, it.afn, it.arg
}

// enqueue links the most recently freed slab slot onto the tail of
// bucket b and returns it for the caller to fill.
func (e *Engine) enqueue(b *bucket) *scheduled {
	if e.free == 0 {
		e.grow()
	}
	i := e.free
	e.free = e.next[i-1]
	if b.tail == 0 {
		b.head = i
	} else {
		e.next[b.tail-1] = i
	}
	b.tail = i
	e.ringN++
	return &e.slab[i-1]
}

// grow adds one slot to the slab and puts it on the empty free list.
// It is a function of its own so that enqueue stays within the
// compiler's inlining budget.
func (e *Engine) grow() {
	e.slab = append(e.slab, scheduled{})
	e.next = append(e.next, 0)
	e.free = int32(len(e.slab))
}

// Schedule runs fn after delay cycles. A delay of zero runs fn later in
// the current cycle, after all previously scheduled events for this cycle.
func (e *Engine) Schedule(delay Time, fn Event) {
	e.insert(e.now+delay, scheduled{fn: fn})
}

// ScheduleThunk is Schedule for a callback that ignores the clock:
// completion notifications that already close over their state can be
// queued directly instead of being wrapped in a func(Time) adapter.
func (e *Engine) ScheduleThunk(delay Time, fn func()) {
	e.insert(e.now+delay, scheduled{tfn: fn})
}

// ScheduleArg runs fn(now, arg) after delay cycles. fn is typically a
// single function value stored for the lifetime of a component, with
// arg selecting the slot/lane/index to act on — the allocation-free
// alternative to a per-event closure.
func (e *Engine) ScheduleArg(delay Time, fn ArgEvent, arg int) {
	e.insert(e.now+delay, scheduled{afn: fn, arg: arg})
}

// At runs fn at absolute time at. If at is in the past it runs at the
// current time (never before: virtual time is monotonic).
func (e *Engine) At(at Time, fn Event) {
	if at < e.now {
		at = e.now
	}
	e.insert(at, scheduled{fn: fn})
}

// AtThunk is At for a clock-ignoring callback; see ScheduleThunk.
func (e *Engine) AtThunk(at Time, fn func()) {
	if at < e.now {
		at = e.now
	}
	e.insert(at, scheduled{tfn: fn})
}

// AtArg runs fn(now, arg) at absolute time at (clamped to the present);
// the At counterpart of ScheduleArg. Bandwidth servers use it to queue
// pooled continuations at a transfer's completion time without wrapping
// them in a closure.
func (e *Engine) AtArg(at Time, fn ArgEvent, arg int) {
	if at < e.now {
		at = e.now
	}
	e.insert(at, scheduled{afn: fn, arg: arg})
}

// setNow advances the clock to t and restores the scheduling invariant:
// far events whose time entered [t, t+ringSize) migrate into their ring
// buckets. The heap pops in (time, seq) order and migration for a given
// cycle always happens before anything can append to that cycle's
// bucket directly, so FIFO-by-seq order within every bucket survives.
func (e *Engine) setNow(t Time) {
	e.now = t
	horizon := t + ringSize
	for len(e.far) > 0 && e.far[0].at < horizon {
		it := e.far.pop()
		*e.enqueue(&e.ring[it.at&ringMask]) = it
	}
}

// advance moves the clock to the time of the next queued event,
// reporting whether one existed.
func (e *Engine) advance() bool {
	t, ok := e.peek()
	if !ok {
		return false
	}
	e.setNow(t)
	return true
}

// peek reports the time of the next queued event without running it.
func (e *Engine) peek() (Time, bool) {
	if e.ringN > 0 {
		// The next event is in the ring (far events are all ≥ now+ringSize)
		// and within the window, so this scan terminates in ≤ ringSize
		// probes; buckets of already-executed cycles are reset to empty,
		// so starting at now is safe even after the current cycle drains.
		for t := e.now; ; t++ {
			if e.ring[t&ringMask].head != 0 {
				return t, true
			}
		}
	}
	if len(e.far) > 0 {
		return e.far[0].at, true
	}
	return 0, false
}

// Step executes the single next event and reports whether one existed.
func (e *Engine) Step() bool {
	b := &e.ring[e.now&ringMask]
	if b.head == 0 {
		if !e.advance() {
			return false
		}
		b = &e.ring[e.now&ringMask]
	}
	i := b.head
	s := &e.slab[i-1]
	// Copied field by field for the same store-forwarding reason as in
	// insert: the slot was often written only a few events ago.
	it := scheduled{fn: s.fn, tfn: s.tfn, afn: s.afn, arg: s.arg}
	*s = scheduled{} // release callback references
	if i == b.tail {
		*b = bucket{}
	} else {
		b.head = e.next[i-1]
	}
	e.next[i-1] = e.free
	e.free = i
	e.ringN--
	e.nRun++
	it.call(e.now)
	return true
}

// Run executes events until the queue drains and returns the final time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil executes events with time ≤ deadline. It returns true if the
// queue drained, false if the deadline stopped execution first (leaving
// the clock at deadline and later events still queued). A deadline in
// the past executes nothing and leaves the clock where it is — virtual
// time never moves backward.
func (e *Engine) RunUntil(deadline Time) bool {
	if deadline < e.now {
		return e.Pending() == 0
	}
	for {
		t, ok := e.peek()
		if !ok {
			return true
		}
		if t > deadline {
			e.setNow(deadline)
			return false
		}
		e.Step()
	}
}

// Reset returns the engine to its zero state: clock at zero, no pending
// events, counters cleared. Use it before reusing an Engine for a fresh
// simulation — any events still queued (after a RunUntil stop, a
// stopped Ticker, or an abandoned run) are discarded rather than leaking
// into the next run. Their callback references are released; the slab
// and heap keep their capacity for the next run.
func (e *Engine) Reset() {
	e.ring = [ringSize]bucket{}
	clear(e.slab)
	clear(e.far)
	e.slab, e.next, e.far, e.free = e.slab[:0], e.next[:0], e.far[:0], 0
	e.now, e.seq, e.nRun, e.ringN = 0, 0, 0, 0
}

// farHeap is the overflow level: a binary min-heap of events at or
// beyond the ring window, ordered by (time, seq). Hand-rolled rather
// than container/heap so pushes stay free of interface boxing.
type farHeap []scheduled

func (h farHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *farHeap) push(it scheduled) {
	*h = append(*h, it)
	a := *h
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !a.less(i, parent) {
			break
		}
		a[i], a[parent] = a[parent], a[i]
		i = parent
	}
}

func (h *farHeap) pop() scheduled {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = scheduled{} // release callback references
	a = a[:n]
	*h = a
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && a.less(l, smallest) {
			smallest = l
		}
		if r < n && a.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		a[i], a[smallest] = a[smallest], a[i]
		i = smallest
	}
	return top
}
