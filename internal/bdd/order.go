package bdd

import "fmt"

// Variable ordering. A factory may decouple variable indices from
// decision levels: nodes branch in *level* order, while the public API
// (Var, Restrict, Exists, Assignment, ...) keeps speaking variable
// indices. The permutation is fixed for the lifetime of a workload — it
// may only be installed on an empty arena — so the apply kernels stay
// permutation-free: they compare the level fields stored in the nodes,
// exactly as before. Only the variable-facing boundary translates.
//
// The zero state (no SetOrder call, or an identity order) keeps the
// historical var == level identity and costs nothing.

// SetOrder installs a variable order: order[k] is the variable index
// branching at level k (order[0] is the topmost variable). The slice
// must be a permutation of [0, NumVars). The arena must be empty — call
// SetOrder immediately after NewFactory or Reset, before any node is
// built — because existing nodes already fixed their levels. An
// identity permutation resets the factory to the fast unpermuted state.
func (f *Factory) SetOrder(order []int) {
	if len(f.nodes) != 1 {
		panic(fmt.Sprintf("bdd: SetOrder on a non-empty arena (%d nodes)", len(f.nodes)))
	}
	if len(order) != f.numVars {
		panic(fmt.Sprintf("bdd: order has %d entries, factory has %d variables", len(order), f.numVars))
	}
	identity := true
	seen := make([]bool, f.numVars)
	for k, v := range order {
		if v < 0 || v >= f.numVars || seen[v] {
			panic(fmt.Sprintf("bdd: order is not a permutation of [0,%d)", f.numVars))
		}
		seen[v] = true
		if v != k {
			identity = false
		}
	}
	if identity {
		f.var2level, f.level2var = nil, nil
		return
	}
	f.var2level = make([]int32, f.numVars)
	f.level2var = make([]int32, f.numVars)
	for k, v := range order {
		f.var2level[v] = int32(k)
		f.level2var[k] = int32(v)
	}
}

// Order returns the current variable order, top level first. With no
// permutation installed it is the identity.
func (f *Factory) Order() []int {
	out := make([]int, f.numVars)
	for k := range out {
		if f.level2var != nil {
			out[k] = int(f.level2var[k])
		} else {
			out[k] = k
		}
	}
	return out
}

// levelOfVar maps a variable index to its decision level.
func (f *Factory) levelOfVar(i int) int32 {
	if f.var2level == nil {
		return int32(i)
	}
	return f.var2level[i]
}

// varAtLevel maps a decision level to the variable branching there; the
// terminal pseudo-level numVars maps to itself.
func (f *Factory) varAtLevel(l int32) int32 {
	if f.level2var == nil || int(l) >= f.numVars {
		return l
	}
	return f.level2var[l]
}

// anySatOrdered is the permutation-aware AnySat: the greedy low-first
// descent of the fast path enumerates variables in *level* order, so its
// witness would change whenever the order does. This variant walks the
// support in increasing variable-index order, mirroring what the
// identity-order descent does: it stops once the residual function is
// True, skips every variable the residual no longer depends on
// (lo == hi), and otherwise prefers false. Skipped variables stay -1
// exactly as they do on the descent's path, so the witness is the same
// assignment — values and don't-cares — under every order, and reports
// built from witnesses (including their constrained-variable counts) are
// byte-identical across variable orders.
func (f *Factory) anySatOrdered(n Node) Assignment {
	a := make(Assignment, f.numVars)
	for i := range a {
		a[i] = -1
	}
	cur := n
	for _, v := range f.Support(n) {
		if cur == True {
			break
		}
		lo := f.Restrict(cur, v, false)
		hi := f.Restrict(cur, v, true)
		switch {
		case lo == hi:
			// The residual does not depend on v: a don't-care, as on
			// the identity descent, which never visits it.
		case lo != False:
			a[v] = 0
			cur = lo
		default:
			a[v] = 1
			cur = hi
		}
	}
	return a
}
