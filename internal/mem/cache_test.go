package mem

import (
	"testing"
	"testing/quick"

	"repro/internal/arch"
)

// tiny returns a 4-set, 4-way cache (16 lines, 2KB).
func tiny() *Cache { return NewCache(2048, 4) }

func TestNewCacheGeometry(t *testing.T) {
	c := NewCache(128<<10, 4)
	if c.Sets() != 256 || c.Assoc() != 4 {
		t.Fatalf("geometry %dx%d, want 256x4", c.Sets(), c.Assoc())
	}
	c2 := NewCache(4<<20, 16)
	if c2.Sets() != 2048 {
		t.Fatalf("L2 sets %d, want 2048", c2.Sets())
	}
}

func TestNewCachePanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two sets")
		}
	}()
	NewCache(3*128*5, 5)
}

func TestFillLookup(t *testing.T) {
	c := tiny()
	if c.Lookup(42, ClassLocal) {
		t.Fatal("empty cache hit")
	}
	c.Fill(42, ClassLocal, false)
	if !c.Lookup(42, ClassLocal) {
		t.Fatal("filled line missed")
	}
	if c.Hit[ClassLocal].Hits.Value() != 1 || c.Hit[ClassLocal].Misses.Value() != 1 {
		t.Fatal("hit statistics wrong")
	}
}

func TestPeekDoesNotTouch(t *testing.T) {
	c := tiny()
	c.Fill(42, ClassLocal, false)
	before := c.Hit[ClassLocal].Accesses()
	if !c.Peek(42) || c.Peek(43) {
		t.Fatal("peek wrong")
	}
	if c.Hit[ClassLocal].Accesses() != before {
		t.Fatal("peek must not count as access")
	}
}

func TestLRUEviction(t *testing.T) {
	c := tiny() // 4 sets; lines mapping to set 0: 0, 4, 8, 12, ...
	for i := 0; i < 4; i++ {
		c.Fill(arch.LineID(i*4), ClassLocal, false)
	}
	// Touch line 0 so it is MRU; fill a 5th line into the set.
	c.Lookup(0, ClassLocal)
	v, evicted := c.Fill(16*4, ClassLocal, false)
	if !evicted {
		t.Fatal("full set must evict")
	}
	if v.Line != 4 {
		t.Fatalf("evicted %d, want LRU line 4", v.Line)
	}
	if !c.Peek(0) {
		t.Fatal("MRU line must survive")
	}
}

func TestDirtyVictim(t *testing.T) {
	c := tiny()
	c.Fill(0, ClassLocal, true)
	for i := 1; i <= 4; i++ {
		c.Fill(arch.LineID(i*4), ClassLocal, false)
	}
	// Line 0 was LRU and dirty; the 5th fill must surface it dirty.
	if c.Peek(0) {
		t.Fatal("line 0 should be evicted")
	}
}

func TestFillRefreshesAndMergesDirty(t *testing.T) {
	c := tiny()
	c.Fill(7, ClassLocal, false)
	if _, evicted := c.Fill(7, ClassLocal, true); evicted {
		t.Fatal("refill of resident line must not evict")
	}
	dirty := c.InvalidateAll(nil, nil)
	if len(dirty) != 1 || dirty[0].Line != 7 {
		t.Fatalf("dirty set %v, want line 7", dirty)
	}
}

func TestMarkDirty(t *testing.T) {
	c := tiny()
	if c.MarkDirty(9) {
		t.Fatal("absent line cannot be dirtied")
	}
	c.Fill(9, ClassRemote, false)
	if !c.MarkDirty(9) {
		t.Fatal("resident line must be dirtied")
	}
	dirty := c.InvalidateAll(nil, nil)
	if len(dirty) != 1 || dirty[0].Class != ClassRemote {
		t.Fatalf("dirty %v", dirty)
	}
}

func TestPartitionVictimSelection(t *testing.T) {
	c := tiny()
	if err := c.SetPartition(2, 2); err != nil {
		t.Fatal(err)
	}
	// Fill set 0 with two locals and two remotes.
	c.Fill(0, ClassLocal, false)  // way 0
	c.Fill(4, ClassLocal, false)  // way 1
	c.Fill(8, ClassRemote, false) // way 2
	c.Fill(12, ClassRemote, false)
	// A third local must evict a local, never a remote.
	v, evicted := c.Fill(16, ClassLocal, false)
	if !evicted || v.Class != ClassLocal {
		t.Fatalf("local fill evicted %+v, want a local victim", v)
	}
	if !c.Peek(8) || !c.Peek(12) {
		t.Fatal("remote lines must survive local pressure")
	}
	// And vice versa.
	v, evicted = c.Fill(20, ClassRemote, false)
	if !evicted || v.Class != ClassRemote {
		t.Fatalf("remote fill evicted %+v, want a remote victim", v)
	}
}

func TestPartitionValidation(t *testing.T) {
	c := tiny()
	if err := c.SetPartition(0, 4); err == nil {
		t.Fatal("zero local ways must be rejected (starvation guard)")
	}
	if err := c.SetPartition(3, 2); err == nil {
		t.Fatal("overcommitted partition must be rejected")
	}
	if err := c.SetPartition(3, 1); err != nil {
		t.Fatal(err)
	}
}

func TestLazyEvictionOnRepartition(t *testing.T) {
	c := tiny()
	_ = c.SetPartition(2, 2)
	c.Fill(8, ClassRemote, false)
	// Repartition to 3 local / 1 remote: remote line in way 2 now sits
	// in local territory but must stay resident and findable.
	_ = c.SetPartition(3, 1)
	if !c.Lookup(8, ClassRemote) {
		t.Fatal("lookup must consult all ways after repartition (lazy eviction)")
	}
}

func TestShiftWays(t *testing.T) {
	c := tiny()
	_ = c.SetPartition(2, 2)
	if !c.ShiftWays(ClassLocal, ClassRemote) {
		t.Fatal("shift should succeed")
	}
	if c.Ways(ClassLocal) != 1 || c.Ways(ClassRemote) != 3 {
		t.Fatalf("ways %d/%d, want 1/3", c.Ways(ClassLocal), c.Ways(ClassRemote))
	}
	if c.ShiftWays(ClassLocal, ClassRemote) {
		t.Fatal("shift below one way must fail")
	}
	unpart := tiny()
	if unpart.ShiftWays(ClassLocal, ClassRemote) {
		t.Fatal("unpartitioned cache must not shift")
	}
}

func TestInvalidateAllWithKeep(t *testing.T) {
	c := tiny()
	c.Fill(0, ClassLocal, true)
	c.Fill(8, ClassRemote, true)
	dirty := c.InvalidateAll(func(cl Class) bool { return cl == ClassLocal }, nil)
	if len(dirty) != 1 || dirty[0].Class != ClassRemote {
		t.Fatalf("dirty %v, want only the remote line", dirty)
	}
	if !c.Peek(0) {
		t.Fatal("kept class must survive")
	}
	if c.Peek(8) {
		t.Fatal("non-kept class must be invalidated")
	}
}

func TestInvalidateSingle(t *testing.T) {
	c := tiny()
	c.Fill(5, ClassLocal, true)
	v, ok := c.Invalidate(5)
	if !ok || !v.Dirty {
		t.Fatalf("invalidate got %+v ok=%v", v, ok)
	}
	if _, ok := c.Invalidate(5); ok {
		t.Fatal("double invalidate must miss")
	}
}

func TestCountValid(t *testing.T) {
	c := tiny()
	c.Fill(0, ClassLocal, false)
	c.Fill(8, ClassRemote, false)
	c.Fill(16, ClassRemote, false)
	l, r := c.CountValid()
	if l != 1 || r != 2 {
		t.Fatalf("counts %d/%d, want 1/2", l, r)
	}
}

func TestClearPartition(t *testing.T) {
	c := tiny()
	_ = c.SetPartition(2, 2)
	c.ClearPartition()
	if c.Partitioned() {
		t.Fatal("partition must clear")
	}
	// All four ways usable by one class again.
	for i := 0; i < 4; i++ {
		c.Fill(arch.LineID(i*4), ClassLocal, false)
	}
	l, _ := c.CountValid()
	if l != 4 {
		t.Fatalf("local lines %d, want 4", l)
	}
}

// TestPropertyNoDuplicateTags: after arbitrary fill sequences, a line
// is resident at most once (Fill refreshes instead of duplicating).
func TestPropertyNoDuplicateTags(t *testing.T) {
	f := func(ops []uint8) bool {
		c := tiny()
		for i, op := range ops {
			l := arch.LineID(op % 64)
			cl := ClassLocal
			if op%2 == 1 {
				cl = ClassRemote
			}
			if i%7 == 0 {
				_ = c.SetPartition(1+int(op%3), 3-int(op%3))
			}
			c.Fill(l, cl, op%3 == 0)
		}
		// Count every resident line by scanning with Peek per line and
		// by CountValid; residents must not exceed capacity.
		l, r := c.CountValid()
		return l+r <= 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyFilledLineIsFindable: any line just filled is findable
// regardless of partition churn (lookup consults all ways).
func TestPropertyFilledLineIsFindable(t *testing.T) {
	f := func(ops []uint8) bool {
		c := tiny()
		for i, op := range ops {
			l := arch.LineID(op % 64)
			cl := Class(op % 2)
			if i%5 == 0 {
				lp := 1 + int(op%3)
				_ = c.SetPartition(lp, 4-lp)
			}
			c.Fill(l, cl, false)
			if !c.Peek(l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyWaysAlwaysSumToAssoc: partition arithmetic never leaks
// ways.
func TestPropertyWaysAlwaysSumToAssoc(t *testing.T) {
	f := func(shifts []bool) bool {
		c := NewCache(4096, 8)
		_ = c.SetPartition(4, 4)
		for _, toRemote := range shifts {
			if toRemote {
				c.ShiftWays(ClassLocal, ClassRemote)
			} else {
				c.ShiftWays(ClassRemote, ClassLocal)
			}
			if c.Ways(ClassLocal)+c.Ways(ClassRemote) != 8 {
				return false
			}
			if c.Ways(ClassLocal) < 1 || c.Ways(ClassRemote) < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
