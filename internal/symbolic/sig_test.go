package symbolic

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/netaddr"
)

// TestFieldHullMatchesMask: the closed-form hull the window scorer uses
// equals the hull of the enumerated signature mask, for every window
// placement and for random wildcard sets with non-contiguous masks,
// single hosts and empty fields.
func TestFieldHullMatchesMask(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		wcs := make([]netaddr.Wildcard, rng.Intn(4))
		for i := range wcs {
			mask := netaddr.Addr(rng.Uint32())
			switch rng.Intn(3) {
			case 0:
				mask = 0 // host
			case 1:
				mask = netaddr.Addr(uint32(1)<<uint(rng.Intn(33)) - 1) // prefix
			}
			wcs[i] = netaddr.Wildcard{Addr: netaddr.Addr(rng.Uint32()) &^ mask, Mask: mask}
		}
		for w := 0; w <= 32-sigWindowWidth; w++ {
			m := fieldSigMask(w, wcs)
			wantLo, wantHi := uint32(bits.TrailingZeros32(m)), uint32(31-bits.LeadingZeros32(m))
			if lo, hi := fieldHull(w, wcs); lo != wantLo || hi != wantHi {
				t.Fatalf("window %d, %v: hull [%d,%d], mask %032b spans [%d,%d]", w, wcs, lo, hi, m, wantLo, wantHi)
			}
		}
	}
}
