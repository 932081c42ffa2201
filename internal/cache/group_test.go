package cache

import (
	"math/rand"
	"testing"
	"unsafe"

	"busprefetch/internal/memory"
)

// lookupMask is the broadcast reference for Holders: the mask of caches
// whose own Lookup finds a's tag.
func lookupMask(group []*Cache, a memory.Addr) uint64 {
	var m uint64
	for i, c := range group {
		if c.Lookup(a) != nil {
			m |= 1 << uint(i)
		}
	}
	return m
}

// TestHoldersMatchesLookup drives random allocate and snoop sequences through
// groups of several sizes and associativities, and after every step requires
// each member's Holders to equal the mask built from every cache's Lookup.
// The address pool spans four times the cache so sets overflow and ways are
// evicted, and the snoops invalidate lines, which must keep their tags.
func TestHoldersMatchesLookup(t *testing.T) {
	geoms := []memory.Geometry{
		{CacheSize: 1024, LineSize: 32, Assoc: 1},
		{CacheSize: 1024, LineSize: 32, Assoc: 2},
		{CacheSize: 1024, LineSize: 16, Assoc: 4},
	}
	states := []State{Shared, Exclusive, Modified, SharedMod}
	var toShared, toInvalid [NumStates]State
	for s := range toShared {
		toShared[s] = Shared
	}
	for _, geom := range geoms {
		for _, n := range []int{1, 3, 16, 64} {
			rng := rand.New(rand.NewSource(int64(n) * int64(geom.Assoc+1)))
			group := NewGroup(geom, n)
			pool := 4 * geom.Lines()
			addr := func() memory.Addr {
				return memory.Addr(rng.Intn(pool)*geom.LineSize + rng.Intn(geom.LineSize))
			}
			for step := 0; step < 4000; step++ {
				a := addr()
				c := group[rng.Intn(n)]
				switch rng.Intn(4) {
				case 0, 1:
					l, _ := c.Allocate(a)
					l.State = states[rng.Intn(len(states))]
				case 2:
					c.SnoopTable(a, rng.Intn(8), &toInvalid)
				case 3:
					c.SnoopTable(a, NoInvalidatingWord, &toShared)
				}
				for _, q := range []memory.Addr{a, addr()} {
					want := lookupMask(group, q)
					for i, member := range group {
						if got := member.Holders(q); got != want {
							t.Fatalf("%v n=%d step %d: cache %d Holders(%#x) = %#x, Lookup mask %#x",
								geom, n, step, i, uint64(q), got, want)
						}
					}
				}
			}
		}
	}
}

// TestGroupMembersAreIndependent checks that caches sharing a tag table keep
// separate lines: filling one member leaves every other member's view of the
// line, its state and its evictions unchanged.
func TestGroupMembersAreIndependent(t *testing.T) {
	geom := smallGeom()
	g := NewGroup(geom, 3)
	l, _ := g[1].Allocate(0x40)
	l.State = Modified
	if g[0].Lookup(0x40) != nil || g[2].Lookup(0x40) != nil {
		t.Fatal("a fill in cache 1 is visible in another member")
	}
	if got := g[0].Holders(0x40); got != 1<<1 {
		t.Errorf("Holders = %#b, want only cache 1", got)
	}
	l2, ev := g[2].Allocate(0x40)
	l2.State = Shared
	if ev.HadTag {
		t.Error("cache 2's cold fill reported an eviction")
	}
	if g[1].StateOf(0x40) != Modified {
		t.Errorf("cache 1 state = %v after cache 2's fill, want M", g[1].StateOf(0x40))
	}
	if got := g[2].Holders(0x40); got != 1<<1|1<<2 {
		t.Errorf("Holders = %#b, want caches 1 and 2", got)
	}
	if g[0].ValidLines() != 0 || g[1].ValidLines() != 1 || g[2].ValidLines() != 1 {
		t.Errorf("valid lines = %d/%d/%d, want 0/1/1", g[0].ValidLines(), g[1].ValidLines(), g[2].ValidLines())
	}
}

// TestNewGroupRejectsBadSize pins the group bounds: a holder mask is a
// uint64, so a group holds one to 64 caches.
func TestNewGroupRejectsBadSize(t *testing.T) {
	for _, n := range []int{0, -1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGroup(%d) did not panic", n)
				}
			}()
			NewGroup(smallGeom(), n)
		}()
	}
	if g := NewGroup(smallGeom(), 64); len(g) != 64 {
		t.Errorf("NewGroup(64) built %d caches", len(g))
	}
}

// TestLineIsTagFree pins the line's footprint: tags live only in the group's
// table, so a line is its state, flags and two words.
func TestLineIsTagFree(t *testing.T) {
	if got := unsafe.Sizeof(Line{}); got != 24 {
		t.Errorf("sizeof(Line) = %d, want 24", got)
	}
}
