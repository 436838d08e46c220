package paths

import (
	"sync"
	"testing"
)

func TestInternBasics(t *testing.T) {
	tab := NewTable()
	if !InvalidID.IsInvalid() || InvalidID.IsEmpty() {
		t.Fatal("InvalidID classification")
	}
	if EmptyID.IsInvalid() || !EmptyID.IsEmpty() {
		t.Fatal("EmptyID classification")
	}
	if got := tab.Len(EmptyID); got != 0 {
		t.Fatalf("Len([]) = %d", got)
	}
	if _, ok := tab.Source(EmptyID); ok {
		t.Fatal("Source([]) should not exist")
	}
	if !tab.Path(InvalidID).IsInvalid() {
		t.Fatal("Path(⊥) not invalid")
	}
	if !tab.Path(EmptyID).IsEmpty() {
		t.Fatal("Path(0) not empty")
	}

	p := tab.Extend(EmptyID, 1, 2) // path 1->2
	if p.IsInvalid() {
		t.Fatal("Extend([], 1, 2) invalid")
	}
	if got := tab.String(p); got != "1->2" {
		t.Fatalf("String = %q", got)
	}
	q := tab.Extend(p, 0, 1) // 0->1->2
	if got := tab.String(q); got != "0->1->2" {
		t.Fatalf("String = %q", got)
	}
	if got := tab.Len(q); got != 2 {
		t.Fatalf("Len = %d", got)
	}
	if src, _ := tab.Source(q); src != 0 {
		t.Fatalf("Source = %d", src)
	}
	if dst, _ := tab.Destination(q); dst != 2 {
		t.Fatalf("Destination = %d", dst)
	}
	for _, v := range []int{0, 1, 2} {
		if !tab.Contains(q, v) {
			t.Fatalf("Contains(%d) = false", v)
		}
	}
	if tab.Contains(q, 3) {
		t.Fatal("Contains(3) = true")
	}
}

func TestInternHashConsing(t *testing.T) {
	tab := NewTable()
	a := tab.Extend(tab.Extend(EmptyID, 1, 2), 0, 1)
	b := tab.Intern(FromNodes(0, 1, 2))
	if a != b {
		t.Fatalf("same path interned to different ids: %d vs %d", a, b)
	}
	if sz := tab.Size(); sz != 2 {
		t.Fatalf("table size %d, want 2 (1->2 and 0->1->2)", sz)
	}
}

func TestInternLoopRejection(t *testing.T) {
	tab := NewTable()
	p := tab.Extend(EmptyID, 1, 2)
	for _, tc := range []struct{ i, j int }{
		{2, 1},  // j not the source
		{2, 2},  // self loop
		{2, 1},  // repeated node via wrong source
		{-1, 2}, // j mismatch (source is 1)
	} {
		if got := tab.Extend(p, tc.i, tc.j); !got.IsInvalid() {
			t.Fatalf("Extend(1->2, %d, %d) = %v, want ⊥", tc.i, tc.j, tab.String(got))
		}
	}
	// Extending with a node already on the path loops.
	q := tab.Extend(p, 0, 1) // 0->1->2
	if got := tab.Extend(q, 2, 0); !got.IsInvalid() {
		t.Fatal("loop 2->0->1->2 accepted")
	}
	if tab.CanExtend(q, 2, 0) {
		t.Fatal("CanExtend accepted a loop")
	}
	if !tab.CanExtend(q, 3, 0) {
		t.Fatal("CanExtend rejected a valid extension")
	}
	// Extending ⊥ stays ⊥.
	if got := tab.Extend(InvalidID, 0, 1); !got.IsInvalid() {
		t.Fatal("Extend(⊥) not ⊥")
	}
}

// TestInternAliasQueryOnExactTable queries nodes ≥ 64 against a table
// that has only interned nodes ≤ 63: the bloom bit may collide with an
// in-range node's bit, but the out-of-range node cannot be a member, and
// the valid extension must not be rejected. (Regression: the
// exact-summary fast path used to trust the collided bit.)
func TestInternAliasQueryOnExactTable(t *testing.T) {
	tab := NewTable()
	p := tab.Extend(EmptyID, 6, 7) // 6 and 70 share bloom bit 6
	if tab.Contains(p, 70) {
		t.Fatal("Contains(6->7, 70) = true")
	}
	if !tab.CanExtend(p, 70, 6) {
		t.Fatal("CanExtend(6->7, 70, 6) = false")
	}
	if q := tab.Extend(p, 70, 6); q.IsInvalid() {
		t.Fatal("valid simple path 70->6->7 rejected")
	}
	if id := NewTable().Intern(FromNodes(70, 6, 7)); id.IsInvalid() {
		t.Fatal("Intern(70->6->7) rejected on a fresh table")
	}
}

// TestInternAliasedNodes drives node ids past the exact range of the
// bloom word so membership falls back to the parent walk.
func TestInternAliasedNodes(t *testing.T) {
	tab := NewTable()
	// 100 and 36 share bit 36 (100 % 64); 164 shares it too.
	p := tab.Extend(EmptyID, 100, 5)
	if tab.Contains(p, 36) || tab.Contains(p, 164) {
		t.Fatal("bloom alias reported as member")
	}
	if !tab.Contains(p, 100) || !tab.Contains(p, 5) {
		t.Fatal("member missing")
	}
	if got := tab.Extend(p, 164, 100); got.IsInvalid() {
		t.Fatal("aliased non-member rejected")
	}
	if got := tab.Extend(tab.Extend(p, 164, 100), 100, 164); !got.IsInvalid() {
		t.Fatal("aliased member accepted (loop)")
	}
}

func TestInternCompareMatchesReference(t *testing.T) {
	tab := NewTable()
	all := EnumerateAllSimple(4)
	ids := make([]PathID, len(all))
	for i, p := range all {
		ids[i] = tab.Intern(p)
	}
	all = append(all, Invalid)
	ids = append(ids, InvalidID)
	for i := range all {
		for j := range all {
			want := all[i].Compare(all[j])
			got := tab.Compare(ids[i], ids[j])
			if got != want {
				t.Fatalf("Compare(%s, %s) = %d, want %d", all[i], all[j], got, want)
			}
			if (ids[i] == ids[j]) != all[i].Equal(all[j]) {
				t.Fatalf("id equality disagrees with path equality for (%s, %s)", all[i], all[j])
			}
		}
	}
}

func TestInternRoundTrip(t *testing.T) {
	tab := NewTable()
	for _, p := range EnumerateAllSimple(5) {
		id := tab.Intern(p)
		back := tab.Path(id)
		if !back.Equal(p) {
			t.Fatalf("round trip %s -> %d -> %s", p, id, back)
		}
		if tab.Len(id) != p.Len() {
			t.Fatalf("Len mismatch for %s", p)
		}
		if got, want := tab.String(id), p.String(); got != want {
			t.Fatalf("String %q != %q", got, want)
		}
	}
}

// TestInternConcurrent hammers one table from several goroutines; the
// race detector checks the locking discipline, and hash-consing must
// still be canonical afterwards. The second half drives one parent past
// its child slots from Extend and both ExtendSel forms at once.
func TestInternConcurrent(t *testing.T) {
	tab := NewTable()
	const n = 6
	var wg sync.WaitGroup
	ids := make([]PathID, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := g % 2
			var last PathID
			for rep := 0; rep < 200; rep++ {
				id := EmptyID
				for v := n - 1; v > 0; v-- {
					id = tab.Extend(id, base+v-1, base+v)
					tab.Contains(id, base+v)
					tab.Compare(id, last)
				}
				last = id
			}
			ids[g] = last
		}(g)
	}
	wg.Wait()
	for g := 2; g < 8; g++ {
		if ids[g] != ids[g%2] {
			t.Fatalf("goroutine %d interned a divergent id", g)
		}
	}

	internConcurrentOverflow(t)
}

// internConcurrentOverflow extends one parent by more tail nodes than it
// has child slots, so late children go to the overflow index, through
// Extend, dense ExtendSel and sparse ExtendSel on concurrent goroutines,
// mixed with extensions of the empty path and with arcs whose head does
// not match the parent's source. Every goroutine must see the same ids,
// and each id must denote the path a fresh single-threaded table gives
// for the same extension.
func internConcurrentOverflow(t *testing.T) {
	const (
		tails = 3 * kidSlots
		far   = 50 // a head node no extension of root can have
		reps  = 20
		gs    = 9
		unset = PathID(-99)
	)
	tab := NewTable()
	root := tab.Extend(EmptyID, 0, 1) // 0->1: only arcs (i, 0) extend it
	src := []PathID{root, EmptyID, root, InvalidID, root}
	sel := []int32{0, 1, 4}
	heads := []int{0, far}
	// got[g][k][h][x]: goroutine g's id for cell x extended by the arc
	// (2+k, heads[h]).
	got := make([][tails][2][5]PathID, gs)
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < reps; rep++ {
				for step := 0; step < tails; step++ {
					k := (step + g) % tails // a different insertion order per goroutine
					for h, j := range heads {
						out := got[g][k][h][:]
						for x := range out {
							out[x] = unset
						}
						switch g % 3 {
						case 0:
							tab.ExtendSel(src, out, nil, 0, len(src), 2+k, j)
						case 1:
							tab.ExtendSel(src, out, sel, 0, len(src), 2+k, j)
						default:
							for x := range src {
								out[x] = tab.Extend(src[x], 2+k, j)
							}
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()

	ref := NewTable()
	refSrc := []PathID{ref.Extend(EmptyID, 0, 1), EmptyID, ref.Extend(EmptyID, 0, 1), InvalidID, ref.Extend(EmptyID, 0, 1)}
	selected := func(g, x int) bool {
		if g%3 != 1 {
			return true
		}
		for _, s := range sel {
			if int(s) == x {
				return true
			}
		}
		return false
	}
	for k := 0; k < tails; k++ {
		for h, j := range heads {
			for x := range src {
				want := ref.Extend(refSrc[x], 2+k, j)
				canon := got[0][k][h][x]
				if !ref.Path(want).Equal(tab.Path(canon)) {
					t.Fatalf("Extend(%s, %d, %d) = %s, single-threaded table gives %s",
						tab.String(src[x]), 2+k, j, tab.String(canon), ref.String(want))
				}
				if src[x] == root && j != 0 && !canon.IsInvalid() {
					t.Fatalf("mismatched head (%d, %d) extended 0->1", 2+k, j)
				}
				for g := 1; g < gs; g++ {
					id := got[g][k][h][x]
					if !selected(g, x) {
						if id != unset {
							t.Fatalf("sparse ExtendSel wrote unselected cell %d", x)
						}
						continue
					}
					if id != canon {
						t.Fatalf("goroutine %d: id %d for %s, goroutine 0 has %d", g, id, tab.String(id), canon)
					}
				}
			}
		}
	}
	if tab.Size() != ref.Size() {
		t.Fatalf("table size %d, single-threaded table %d", tab.Size(), ref.Size())
	}
	// root, (i, 0) and (i, far) from the empty path, and root's children
	// beyond its slots.
	if got, want := len(tab.roots), 1+2*tails; got != want {
		t.Fatalf("root index holds %d extensions, want %d", got, want)
	}
	if got, want := len(tab.more), tails-kidSlots; got != want {
		t.Fatalf("overflow index holds %d children, want %d", got, want)
	}
}
