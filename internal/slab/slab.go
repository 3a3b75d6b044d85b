// Package slab carves many small objects of one type out of a single
// exactly-sized allocation. A network of routers is thousands of small
// objects that hold pointers; allocated one by one, each pays the heap's
// per-object cost (size-class rounding, a type bitmap, a mark bit the
// collector scans). Carved from one slab per type they pay it once.
//
// A Slab is used in two identical passes, as the network's builder uses
// it: until Alloc, Take and New only tally the
// space asked for and return nil; Alloc allocates exactly that; the same
// calls in the same order then return consecutive pieces of it. A
// builder therefore takes everything it needs first, returns early when
// a piece came back nil (the counting pass), and only then writes.
package slab

import "unsafe"

// Line is the cache-line size padded slabs keep their pieces apart by.
const Line = 64

// Slab is a typed slab (see the package comment). The zero value is a
// slab in its counting pass.
type Slab[T any] struct {
	buf []T // nil until Alloc
	n   int
}

// Take returns the next n elements, zeroed, capacity-limited to n (nil
// on the counting pass).
func (s *Slab[T]) Take(n int) []T {
	s.n += n
	if s.buf == nil {
		return nil
	}
	return s.buf[s.n-n : s.n : s.n]
}

// New returns the next element, zeroed (nil on the counting pass).
func (s *Slab[T]) New() *T {
	s.n++
	if s.buf == nil {
		return nil
	}
	return &s.buf[s.n-1]
}

// Alloc ends the counting pass: it allocates exactly the elements
// counted. With pad, no carved element shares a 64-byte line with any
// other allocation, which keeps two shards' slabs from false sharing: a
// slab past the heap's small-object limit is a span of its own, and a
// smaller one gets a cache line of spare elements on either side.
func (s *Slab[T]) Alloc(pad bool) {
	p := s.pad(pad)
	all := make([]T, s.n+2*p)
	s.buf = all[p : p+s.n : p+s.n] // never nil, even when empty
	s.n = 0
}

// largeObject is the Go heap's small-object limit: a larger allocation
// gets whole pages of its own.
const largeObject = 32 << 10

// pad returns the spare elements on each side of the slab.
func (s *Slab[T]) pad(pad bool) int {
	var z T
	size := int(unsafe.Sizeof(z))
	if !pad || s.n == 0 || s.n*size > largeObject {
		return 0
	}
	return (Line + size - 1) / size
}

// Bytes returns the bytes Alloc(pad) asks for: on the counting pass,
// what the calls so far have counted.
func (s *Slab[T]) Bytes(pad bool) int64 {
	var z T
	return int64(s.n+2*s.pad(pad)) * int64(unsafe.Sizeof(z))
}

// Carved returns every element carved so far, in carving order.
func (s *Slab[T]) Carved() []T { return s.buf[:s.n:s.n] }

// Counting reports whether the slab is still in its counting pass.
func (s *Slab[T]) Counting() bool { return s.buf == nil }
