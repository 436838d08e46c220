package policy

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/paths"
)

// IRoute is the interned carrier of the Section 7 algebra: the same
// attributes as Route, with the simple path hash-consed into a PathID
// backed by a shared *paths.Table. The struct is comparable, so routes
// double as map keys for edge memoisation, and equality needs no path
// walk.
type IRoute struct {
	invalid bool
	LPref   uint32
	Comms   CommunitySet
	ID      paths.PathID
	Pad     uint8
	// plen caches the arc count of ID so the decision procedure's length
	// step needs no table access (and no lock) — equal ids always have
	// equal plen, so comparability and FastEqual are unaffected. It is
	// maintained incrementally: +1 per extension.
	plen int32
}

// IsInvalid reports whether r is the invalid route.
func (r IRoute) IsInvalid() bool { return r.invalid }

// EffectiveLength is unavailable on IRoute without its table; use
// Interned.EffectiveLength.

// Interned is the Section 7 algebra over the interned carrier. It
// decides exactly the same order as Algebra on the corresponding Route
// values — the decision procedure is unchanged, only the path
// representation differs — and implements pathalg.PathAlgebra[IRoute],
// core.Interner and core.EdgeMemoizer.
type Interned struct {
	Tab *paths.Table
}

// NewInterned builds the interned policy algebra over tab (a fresh
// private table when nil).
func NewInterned(tab *paths.Table) *Interned {
	if tab == nil {
		tab = paths.NewTable()
	}
	return &Interned{Tab: tab}
}

// InvalidIRoute is the invalid route ∞ of the interned carrier.
var InvalidIRoute = IRoute{invalid: true, ID: paths.InvalidID}

// TrivialIRoute is the trivial route 0 = valid 0 ∅ [].
var TrivialIRoute = IRoute{}

// FromRoute interns a reference-representation route.
func (t *Interned) FromRoute(r Route) IRoute {
	if r.invalid {
		return InvalidIRoute
	}
	return IRoute{LPref: r.LPref, Comms: r.Comms, ID: t.Tab.Intern(r.Path), Pad: r.Pad, plen: int32(r.Path.Len())}
}

// ToRoute materialises an interned route back into the reference
// representation.
func (t *Interned) ToRoute(r IRoute) Route {
	if r.invalid {
		return InvalidRoute
	}
	return Route{LPref: r.LPref, Comms: r.Comms, Path: t.Tab.Path(r.ID), Pad: r.Pad}
}

// EffectiveLength is the path length the decision procedure compares:
// the real (interned) path plus any prepending padding. It reads the
// length carried in the route, touching no shared state.
func (t *Interned) EffectiveLength(r IRoute) int { return int(r.plen) + int(r.Pad) }

// Compare orders interned routes by the Section 7 decision procedure,
// step for step identical to Route.Compare; only step 4's lexicographic
// path comparison consults the table (and exits early on equal ids).
func (t *Interned) Compare(r, s IRoute) int {
	switch {
	case r.invalid && s.invalid:
		return 0
	case r.invalid:
		return 1
	case s.invalid:
		return -1
	}
	switch {
	case r.LPref < s.LPref:
		return -1
	case r.LPref > s.LPref:
		return 1
	}
	switch {
	case t.EffectiveLength(r) < t.EffectiveLength(s):
		return -1
	case t.EffectiveLength(r) > t.EffectiveLength(s):
		return 1
	}
	if d := t.Tab.Compare(r.ID, s.ID); d != 0 {
		return d
	}
	switch {
	case r.Comms < s.Comms:
		return -1
	case r.Comms > s.Comms:
		return 1
	case r.Pad < s.Pad:
		return -1
	case r.Pad > s.Pad:
		return 1
	}
	return 0
}

// Choice implements ⊕ via the decision procedure.
func (t *Interned) Choice(a, b IRoute) IRoute {
	if t.Compare(a, b) <= 0 {
		return a
	}
	return b
}

// Trivial implements 0 = valid 0 ∅ [].
func (*Interned) Trivial() IRoute { return TrivialIRoute }

// Invalid implements ∞.
func (*Interned) Invalid() IRoute { return InvalidIRoute }

// Equal implements route equality.
func (t *Interned) Equal(a, b IRoute) bool { return t.FastEqual(a, b) }

// FastEqual implements core.Interner: with the path hash-consed, routes
// are equal iff their (comparable) field tuples coincide — no Compare
// walk. Invalid routes are identified regardless of other fields.
func (*Interned) FastEqual(a, b IRoute) bool {
	if a.invalid || b.invalid {
		return a.invalid == b.invalid
	}
	return a == b
}

// MemoizeEdge implements core.EdgeMemoizer.
func (*Interned) MemoizeEdge(e core.Edge[IRoute]) core.Edge[IRoute] {
	return core.MemoEdge[IRoute](e)
}

// Format implements route rendering, matching Route.String.
func (t *Interned) Format(r IRoute) string {
	if r.invalid {
		return "∞"
	}
	if r.Pad > 0 {
		return fmt.Sprintf("⟨lp=%d c=%s p=%s+%d⟩", r.LPref, r.Comms, t.Tab.String(r.ID), r.Pad)
	}
	return fmt.Sprintf("⟨lp=%d c=%s p=%s⟩", r.LPref, r.Comms, t.Tab.String(r.ID))
}

// Path implements the path projection of path algebras.
func (t *Interned) Path(r IRoute) paths.Path {
	if r.invalid {
		return paths.Invalid
	}
	return t.Tab.Path(r.ID)
}

// Edge builds the interned edge weight f_{i,j,pol}, mirroring
// Algebra.Edge: the path extends (one table lookup) before the policy
// runs, so conditions can inspect the new first hop. The policy is
// compiled here, once per edge, and both Apply and the columnar kernel
// run the compiled program.
func (t *Interned) Edge(i, j int, pol Policy) core.Edge[IRoute] {
	return &polEdge{t: t, i: i, j: j, prog: compile(pol), name: "f(" + pol.String() + ")"}
}

// polEdge is the interned edge weight as a named type, so the columnar
// backend can recognise it and compile the batched kernel; its behaviour
// and label match the previous closure form exactly.
type polEdge struct {
	t    *Interned
	i, j int
	prog program
	name string
}

// Apply implements core.Edge.
func (e *polEdge) Apply(r IRoute) IRoute {
	if r.invalid {
		return InvalidIRoute
	}
	id := e.t.Tab.Extend(r.ID, e.i, e.j)
	if id.IsInvalid() {
		return InvalidIRoute
	}
	return e.prog.run(e.t, IRoute{LPref: r.LPref, Comms: r.Comms, ID: id, Pad: r.Pad, plen: r.plen + 1})
}

// Label implements core.Edge.
func (e *polEdge) Label() string { return e.name }
