package serve

import (
	"fmt"
	"testing"
)

func TestRingDeterministic(t *testing.T) {
	members := []string{"a", "b", "c"}
	r1, err := NewRing(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("venue-%d", i)
		if r1.Owner(key) != r2.Owner(key) {
			t.Fatalf("two rings over the same members disagree on %q", key)
		}
	}
	if _, err := NewRing(nil, 0); err == nil {
		t.Fatal("empty ring constructed")
	}
}

func TestRingSpreadsKeys(t *testing.T) {
	members := []string{"s0", "s1", "s2", "s3"}
	r, err := NewRing(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	const keys = 1000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("venue-%d", i))]++
	}
	for _, m := range members {
		if counts[m] == 0 {
			t.Fatalf("member %s owns no keys: %v", m, counts)
		}
		if counts[m] > keys/2 {
			t.Fatalf("member %s owns %d/%d keys — ring badly skewed: %v", m, counts[m], keys, counts)
		}
	}
}

// TestRingMinimalRemapping pins the consistent-hashing property the proxy
// tier depends on: removing one backend only remaps the keys it owned.
func TestRingMinimalRemapping(t *testing.T) {
	full, err := NewRing([]string{"a", "b", "c", "d"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := NewRing([]string{"a", "b", "c"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("venue-%d", i)
		before := full.Owner(key)
		after := reduced.Owner(key)
		if before != "d" && before != after {
			t.Fatalf("key %q moved %s -> %s though its owner was not removed", key, before, after)
		}
	}
}

func TestRingOwnerIndexMatchesMembers(t *testing.T) {
	members := []string{"x", "y", "z"}
	r, err := NewRing(members, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%d", i)
		if got := r.members[r.OwnerIndex(key)]; got != r.Owner(key) {
			t.Fatalf("OwnerIndex and Owner disagree for %q", key)
		}
	}
}
