package slab

import (
	"testing"
	"unsafe"
)

// TestTwoPasses: the counting pass hands out nothing and sizes the
// slab exactly; the carving pass, the same calls in the same order,
// hands out consecutive zeroed pieces capped at their length.
func TestTwoPasses(t *testing.T) {
	var s Slab[int32]
	carve := func() (a []int32, b *int32, c []int32) {
		return s.Take(3), s.New(), s.Take(2)
	}
	if a, b, c := carve(); a != nil || b != nil || c != nil || !s.Counting() {
		t.Fatal("the counting pass handed out memory")
	}
	if got, want := s.Bytes(true), int64(6+2*16)*4; got != want {
		t.Fatalf("Bytes = %d before Alloc, want %d (6 elements and a cache line each side)", got, want)
	}
	if got := s.Bytes(false); got != 6*4 {
		t.Fatalf("unpadded Bytes = %d, want 24", got)
	}
	s.Alloc(true)
	a, b, c := carve()
	if len(a) != 3 || cap(a) != 3 || len(c) != 2 || cap(c) != 2 || s.Counting() {
		t.Fatalf("pieces of %d/%d and %d/%d elements, want 3/3 and 2/2", len(a), cap(a), len(c), cap(c))
	}
	if &a[2] != (*int32)(unsafe.Add(unsafe.Pointer(b), -4)) || &c[0] != (*int32)(unsafe.Add(unsafe.Pointer(b), 4)) {
		t.Fatal("pieces are not consecutive")
	}
	if all := s.Carved(); len(all) != 6 || &all[0] != &a[0] {
		t.Fatalf("Carved has %d elements from %p, want 6 from %p", len(all), &all[0], &a[0])
	}
	if s.Bytes(true) != int64(6+2*16)*4 {
		t.Fatal("the carving pass counted differently")
	}
}

// TestLargeSlabUnpadded: a slab past the small-object limit is a span
// of its own, so it needs no spare cache lines.
func TestLargeSlabUnpadded(t *testing.T) {
	var s Slab[uint64]
	s.Take(largeObject/8 + 1)
	if got, want := s.Bytes(true), int64(largeObject+8); got != want {
		t.Fatalf("Bytes = %d, want %d", got, want)
	}
}
