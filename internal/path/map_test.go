package path

import "testing"

// lcg is a tiny deterministic generator for exercising the map; the
// simulator's determinism contract keeps math/rand out of this package.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r)
}

// TestMapMatchesBuiltin drives a Map and a built-in map through the same
// deterministic op sequence and requires identical observable state
// throughout, including after clear-and-reuse.
func TestMapMatchesBuiltin(t *testing.T) {
	var pm Map[uint64]
	ref := map[ID]uint64{}
	rng := lcg(12345)

	check := func(step int, k ID) {
		t.Helper()
		wantV, wantOK := ref[k]
		got := pm.Find(k)
		if (got != nil) != wantOK || (wantOK && *got != wantV) {
			t.Fatalf("step %d: Find(%d) = %v, want (%d,%v)", step, k, got, wantV, wantOK)
		}
		if pm.Len() != len(ref) {
			t.Fatalf("step %d: len = %d, want %d", step, pm.Len(), len(ref))
		}
	}

	for round := 0; round < 3; round++ {
		for i := 0; i < 20000; i++ {
			// Small key space forces collisions, overwrites, and
			// delete-of-present cases.
			k := ID(rng.next() % 512)
			switch rng.next() % 4 {
			case 0, 1:
				v := rng.next()
				*pm.Put(k) = v
				ref[k] = v
			case 2:
				pm.Delete(k)
				delete(ref, k)
			case 3:
				// Pure lookup; checked below.
			}
			check(i, k)
			probe := ID(rng.next() % 512)
			check(i, probe)
		}
		// Range visits exactly the live entries.
		seen := 0
		pm.Range(func(k ID, v *uint64) {
			seen++
			if want, ok := ref[k]; !ok || *v != want {
				t.Fatalf("round %d: Range visited %d=%d, want (%d,%v)", round, k, *v, want, ok)
			}
		})
		if seen != len(ref) {
			t.Fatalf("round %d: Range visited %d entries, want %d", round, seen, len(ref))
		}
		// Clear keeps capacity but must empty the map.
		pm.Clear()
		ref = map[ID]uint64{}
		if pm.Len() != 0 || pm.Has(1) {
			t.Fatalf("round %d: map not empty after Clear", round)
		}
	}
}

// TestMapZeroValue verifies the zero value works for every operation.
func TestMapZeroValue(t *testing.T) {
	var pm Map[uint64]
	if pm.Has(0) || pm.Find(0) != nil || pm.Len() != 0 {
		t.Fatal("zero-value Map not empty")
	}
	pm.Delete(7) // no-op
	pm.Clear()   // no-op
	pm.Range(func(ID, *uint64) { t.Fatal("Range visited an empty map") })
	*pm.Put(0) = 42
	if v := pm.Find(0); v == nil || *v != 42 || pm.Len() != 1 {
		t.Fatal("zero key not stored")
	}
}

// TestMapPutUpserts checks that Put inserts a zero value once and then
// returns the stored value, across several doublings: no entry is lost
// and no count changes when the table grows.
func TestMapPutUpserts(t *testing.T) {
	var pm Map[uint32]
	const n = 20 * mapMinCap
	key := func(k int) ID { return ID(k) * 0x100000001 } // spread and collide in the low bits
	for round := uint32(1); round <= 3; round++ {
		for k := 0; k < n; k++ {
			v := pm.Put(key(k))
			if *v != round-1 {
				t.Fatalf("round %d: key %d = %d before increment", round, k, *v)
			}
			*v++
		}
		if pm.Len() != n {
			t.Fatalf("round %d: %d live entries, want %d", round, pm.Len(), n)
		}
	}
	if len(pm.slots) < n*4/3 || len(pm.slots)&(len(pm.slots)-1) != 0 {
		t.Errorf("%d slots for %d entries", len(pm.slots), n)
	}
}
