package policy

import (
	"testing"

	"repro/internal/paths"
)

func benchRoute() Route {
	return Valid(3, NewCommunitySet(1, 4, 7), paths.FromNodes(5, 3, 2, 0))
}

func BenchmarkApplySimple(b *testing.B) {
	pol := IncrPrefBy(2)
	r := benchRoute()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pol.Apply(r)
	}
}

func BenchmarkApplyConditional(b *testing.B) {
	pol := IfElse(And(InComm(4), Not(InPath(9))), Compose(AddComm(2), IncrPrefBy(1)), Reject())
	r := benchRoute()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pol.Apply(r)
	}
}

func BenchmarkEdgeApply(b *testing.B) {
	alg := Algebra{}
	e := alg.Edge(6, 5, If(InComm(1), IncrPrefBy(1)))
	r := benchRoute()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Apply(r)
	}
}

// BenchmarkEdgeApplyInterned is BenchmarkEdgeApply over the interned
// carrier: a warm table lookup for the extension, then the policy program
// compiled once by Edge.
func BenchmarkEdgeApplyInterned(b *testing.B) {
	alg := NewInterned(nil)
	e := alg.Edge(6, 5, If(InComm(1), IncrPrefBy(1)))
	r := alg.FromRoute(benchRoute())
	sink := e.Apply(r) // interns the extension
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = e.Apply(r)
	}
	if sink.IsInvalid() {
		b.Fatal("extension rejected")
	}
}

func BenchmarkChoice(b *testing.B) {
	alg := Algebra{}
	x := benchRoute()
	y := Valid(3, NewCommunitySet(2), paths.FromNodes(6, 3, 2, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = alg.Choice(x, y)
	}
}

func BenchmarkParsePolicy(b *testing.B) {
	src := "addc(3); if (comm(3) & !path(2)) { lp+=10 } else { delc(1); reject }"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParsePolicy(src); err != nil {
			b.Fatal(err)
		}
	}
}
