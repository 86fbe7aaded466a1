// Package mem models the GPU memory system state: set-associative
// caches with NUMA way-class partitioning (Figure 7 of Milic et al.)
// and the per-socket DRAM (HBM) behind them.
//
// Caches here are pure state machines — tags, LRU, dirty bits, way
// partitions. Timing (latencies, bandwidth, MSHR merging) lives in the
// controllers of the gpu package, which own the event scheduling.
//
// A Cache keeps its lines struct-of-arrays: packed tag words, LRU
// stamps and one flag byte per line in three parallel slices, so the
// hot set probe scans only tags. cache_ref_test.go keeps the earlier
// array-of-structs layout as the reference model the tests compare it
// against.
package mem

import (
	"fmt"
	"math/bits"

	"repro/internal/arch"
	"repro/internal/stats"
)

// Class labels a cache line by the NUMA zone of its home memory as seen
// by the caching GPU: local lines live in this socket's DRAM, remote
// lines in another socket's. The NUMA-aware policy partitions capacity
// between these two classes.
type Class int

const (
	// ClassLocal marks data homed in the caching GPU's own DRAM.
	ClassLocal Class = iota
	// ClassRemote marks data homed in another GPU socket's DRAM.
	ClassRemote
	numClasses
)

func (c Class) String() string {
	if c == ClassLocal {
		return "local"
	}
	return "remote"
}

// Line flag bits, one byte per way: the dirty bit and the line's class.
const (
	flagDirty  uint8 = 1
	flagRemote uint8 = 2 // set for ClassRemote
)

func classFlags(cl Class) uint8 {
	if cl == ClassRemote {
		return flagRemote
	}
	return 0
}

func flagClass(f uint8) Class {
	if f&flagRemote != 0 {
		return ClassRemote
	}
	return ClassLocal
}

// Victim describes a line evicted by an insertion or invalidation.
type Victim struct {
	Line  arch.LineID
	Dirty bool
	Class Class
}

// Cache is a set-associative, LRU cache with optional way partitioning
// between local and remote classes. Lookups consult all ways regardless
// of partition (the paper's "lazy eviction" design); the partition only
// steers victim selection on fills.
type Cache struct {
	sets    int
	assoc   int
	setMask uint64
	// Lines are stored struct-of-arrays, sets × assoc, set-major: a set
	// probe reads only its packed tag words (one host cache line for
	// 8 ways, two for a 16-way L2 set).
	tags      []uint64 // LineID+1; 0 = invalid
	used      []uint64 // LRU stamps, unique among valid lines
	flags     []uint8  // flagDirty | flagRemote; stale once the tag is 0
	stamp     uint64
	ways      [numClasses]int // current partition, sums to assoc
	partition bool            // false: classes share all ways

	// Stats per class.
	Hit   [numClasses]stats.HitRate
	Fills [numClasses]stats.Counter
	Evic  [numClasses]stats.Counter
}

// NewCache builds a cache of the given total size in bytes and
// associativity. The set count must come out a power of two. The cache
// starts unpartitioned.
func NewCache(sizeBytes, assoc int) *Cache {
	if assoc < 1 {
		panic("mem: associativity must be >= 1")
	}
	nLines := sizeBytes / arch.LineSize
	sets := nLines / assoc
	if sets == 0 {
		sets = 1
	}
	if bits.OnesCount(uint(sets)) != 1 {
		panic(fmt.Sprintf("mem: set count %d is not a power of two (size %dB assoc %d)", sets, sizeBytes, assoc))
	}
	n := sets * assoc
	c := &Cache{
		sets:    sets,
		assoc:   assoc,
		setMask: uint64(sets - 1),
		tags:    make([]uint64, n),
		used:    make([]uint64, n),
		flags:   make([]uint8, n),
	}
	c.ways[ClassLocal] = assoc
	return c
}

// Sets and Assoc report the geometry.
func (c *Cache) Sets() int  { return c.sets }
func (c *Cache) Assoc() int { return c.assoc }

// Partitioned reports whether way partitioning is active.
func (c *Cache) Partitioned() bool { return c.partition }

// Ways reports the ways currently assigned to class (meaningful only
// when partitioned).
func (c *Cache) Ways(cl Class) int { return c.ways[cl] }

// SetPartition enables way partitioning with the given split. Both
// classes must keep at least one way (the paper's starvation guard) and
// the split must cover the full associativity. Existing contents are
// not evicted (lazy eviction).
func (c *Cache) SetPartition(local, remote int) error {
	if local < 1 || remote < 1 {
		return fmt.Errorf("mem: each class needs >= 1 way (got local=%d remote=%d)", local, remote)
	}
	if local+remote != c.assoc {
		return fmt.Errorf("mem: partition %d+%d must equal associativity %d", local, remote, c.assoc)
	}
	c.partition = true
	c.ways[ClassLocal] = local
	c.ways[ClassRemote] = remote
	return nil
}

// ClearPartition disables partitioning; all ways become shared.
func (c *Cache) ClearPartition() {
	c.partition = false
	c.ways[ClassLocal] = c.assoc
	c.ways[ClassRemote] = 0
}

// ShiftWays moves one way from donor to receiver, respecting the
// one-way minimum. It reports whether a way moved.
func (c *Cache) ShiftWays(from, to Class) bool {
	if !c.partition || c.ways[from] <= 1 {
		return false
	}
	c.ways[from]--
	c.ways[to]++
	return true
}

// setBase returns the index of the first way of l's set.
func (c *Cache) setBase(l arch.LineID) int {
	return int(uint64(l)&c.setMask) * c.assoc
}

// find returns the line index holding l, or -1.
func (c *Cache) find(l arch.LineID) int {
	base := c.setBase(l)
	want := uint64(l) + 1
	for i, t := range c.tags[base : base+c.assoc] {
		if t == want {
			return base + i
		}
	}
	return -1
}

// victimAt describes the valid line at index i.
func (c *Cache) victimAt(i int) Victim {
	return Victim{Line: arch.LineID(c.tags[i] - 1), Dirty: c.flags[i]&flagDirty != 0, Class: flagClass(c.flags[i])}
}

// Lookup probes for l, updating LRU and hit statistics. It reports
// whether the line was present. Counted against class cl (the class the
// requester resolved for the address).
func (c *Cache) Lookup(l arch.LineID, cl Class) bool {
	if i := c.find(l); i >= 0 {
		c.stamp++
		c.used[i] = c.stamp
		c.Hit[cl].Hits.Inc()
		return true
	}
	c.Hit[cl].Misses.Inc()
	return false
}

// Peek reports presence without touching LRU or statistics.
func (c *Cache) Peek(l arch.LineID) bool {
	return c.find(l) >= 0
}

// MarkDirty sets the dirty bit if the line is present, reporting whether
// it was. Used by write hits on write-back caches.
func (c *Cache) MarkDirty(l arch.LineID) bool {
	i := c.find(l)
	if i < 0 {
		return false
	}
	c.flags[i] |= flagDirty
	c.stamp++
	c.used[i] = c.stamp
	return true
}

// Fill inserts line l of class cl, dirty if requested. If the line is
// already present it refreshes LRU (and ORs the dirty bit). Otherwise a
// victim is chosen — within cl's way group when partitioned, globally
// by LRU when not — and returned if it held valid data.
func (c *Cache) Fill(l arch.LineID, cl Class, dirty bool) (Victim, bool) {
	f := classFlags(cl)
	if dirty {
		f |= flagDirty
	}
	c.stamp++
	if i := c.find(l); i >= 0 {
		c.used[i] = c.stamp
		c.flags[i] = c.flags[i]&flagDirty | f
		return Victim{}, false
	}
	c.Fills[cl].Inc()

	base := c.setBase(l)
	lo, hi := base, base+c.assoc
	if c.partition {
		// Class way groups: local owns ways [0, waysLocal), remote the
		// rest. Contents may disagree with the group after repartition;
		// that is the intended lazy eviction.
		if cl == ClassLocal {
			hi = base + c.ways[ClassLocal]
		} else {
			lo = base + c.ways[ClassLocal]
		}
	}
	victim := lo
	for i := lo; i < hi; i++ {
		if c.tags[i] == 0 {
			victim = i
			break
		}
		if c.used[i] < c.used[victim] {
			victim = i
		}
	}
	var out Victim
	had := false
	if c.tags[victim] != 0 {
		out = c.victimAt(victim)
		had = true
		c.Evic[out.Class].Inc()
	}
	c.tags[victim] = uint64(l) + 1
	c.used[victim] = c.stamp
	c.flags[victim] = f
	return out, had
}

// InvalidateAll invalidates every line for which keep returns false and
// appends the dirty lines among them to dirty, in line order, returning
// the extended slice (so the caller can route writebacks from a buffer
// it reuses). A nil keep invalidates everything.
func (c *Cache) InvalidateAll(keep func(cl Class) bool, dirty []Victim) []Victim {
	for i, t := range c.tags {
		if t == 0 {
			continue
		}
		if keep != nil && keep(flagClass(c.flags[i])) {
			continue
		}
		if c.flags[i]&flagDirty != 0 {
			dirty = append(dirty, c.victimAt(i))
		}
		c.tags[i] = 0
	}
	return dirty
}

// Invalidate drops a single line if present, returning its victim info.
func (c *Cache) Invalidate(l arch.LineID) (Victim, bool) {
	i := c.find(l)
	if i < 0 {
		return Victim{}, false
	}
	v := c.victimAt(i)
	c.tags[i] = 0
	return v, true
}

// CountValid reports how many valid lines of each class are resident.
func (c *Cache) CountValid() (local, remote int) {
	for i, t := range c.tags {
		if t == 0 {
			continue
		}
		if flagClass(c.flags[i]) == ClassLocal {
			local++
		} else {
			remote++
		}
	}
	return
}
