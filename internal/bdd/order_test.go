package bdd

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestAnySatOrderedDontCares pins the documented example: under the
// identity order AnySat(¬x0 ∨ x1) fixes only x0; a reversed order must
// return the same witness, leaving x1 (a don't-care once x0 = 0) and x2
// (outside the support) unconstrained.
func TestAnySatOrderedDontCares(t *testing.T) {
	want := Assignment{0, -1, -1}
	id := NewFactory(3)
	if got := id.AnySat(id.Or(id.NVar(0), id.Var(1))); !reflect.DeepEqual(got, want) {
		t.Fatalf("identity order: AnySat = %v, want %v", got, want)
	}
	rev := NewFactory(3)
	rev.SetOrder([]int{2, 1, 0})
	if got := rev.AnySat(rev.Or(rev.NVar(0), rev.Var(1))); !reflect.DeepEqual(got, want) {
		t.Fatalf("order [2 1 0]: AnySat = %v, want %v", got, want)
	}
}

// TestAnySatOrderIndependent: for random functions under random variable
// permutations, AnySat returns exactly the identity-order witness,
// don't-cares included (reports count constrained variables, so a
// spurious 0 is as visible as a wrong value).
func TestAnySatOrderIndependent(t *testing.T) {
	const nvars = 10
	rng := rand.New(rand.NewSource(1))
	for seed := uint64(1); seed <= 300; seed++ {
		id := NewFactory(nvars)
		want := id.AnySat(randomFn(id, nvars, seed, 2+int(seed%24)))

		perm := NewFactory(nvars)
		perm.SetOrder(rng.Perm(nvars))
		got := perm.AnySat(randomFn(perm, nvars, seed, 2+int(seed%24)))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d order %v: AnySat = %v, identity order gives %v",
				seed, perm.Order(), got, want)
		}
	}
}
