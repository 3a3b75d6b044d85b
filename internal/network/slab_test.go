package network

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"routersim/internal/router"
	"routersim/internal/slab"
	"routersim/internal/topology"
)

// lineWalker collects the 64-byte cache lines of everything a value
// reaches through the pointers and slices of the router, allocator,
// arbiter, link and queue packages — a router's or source's carved
// state, and the wires it pops and pushes. Interfaces, funcs and
// pointers into other packages (packets, the network, its shards and
// schedulers, an injector other than the source's own constant-rate
// one) are not followed.
type lineWalker struct {
	lines map[uintptr]bool
	seen  map[uintptr]bool
}

// follows reports whether the walk enters values of type t.
func follows(t reflect.Type) bool {
	for _, pkg := range []string{"/router", "/allocator", "/arbiter", "/link", "/queue"} {
		if strings.HasSuffix(t.PkgPath(), pkg) {
			return true
		}
	}
	return t.PkgPath() == reflect.TypeOf(source{}).PkgPath() && t.Name() == "source"
}

func (w *lineWalker) mark(addr, size uintptr) {
	for l := addr &^ 63; l < addr+size; l += 64 {
		w.lines[l] = true
	}
}

// walk visits v, which lies in memory (addressable).
func (w *lineWalker) walk(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || !follows(v.Type().Elem()) || w.seen[v.Pointer()] {
			return
		}
		w.seen[v.Pointer()] = true
		w.mark(v.Pointer(), v.Type().Elem().Size())
		w.walk(v.Elem())
	case reflect.Slice:
		if v.Cap() == 0 {
			return
		}
		w.mark(v.Pointer(), uintptr(v.Cap())*v.Type().Elem().Size())
		for i := 0; i < v.Len(); i++ {
			w.walk(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			w.walk(v.Field(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			w.walk(v.Index(i))
		}
	}
}

// TestShardsShareNoCacheLine: every router, source and wire is carved
// from its own shard's slabs, so two shards never write one 64-byte
// line — the false sharing per-shard slabs exist to prevent. The
// network is cut off-stride (3 shards over 16 nodes) and overrides give
// nodes different slab sizes, the case a per-shard carving offset bug
// would show in; a boundary link's outbox belongs to the pushing
// router's shard and its inbox to the popping router's.
func TestShardsShareNoCacheLine(t *testing.T) {
	ovs, err := ParseOverrides("0-3:vcs=4,buf=2;9:delay=3", 16)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{K: 4, Router: router.DefaultConfig(router.SpeculativeVC), Shards: 3, Overrides: ovs, InjectionRate: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	owner := map[uintptr]int{}
	for id := 0; id < n.Nodes(); id++ {
		sh := n.sources[id].sh.idx
		w := lineWalker{lines: map[uintptr]bool{}, seen: map[uintptr]bool{}}
		w.walk(reflect.ValueOf(n.routers[id]))
		w.walk(reflect.ValueOf(n.sources[id]))
		if len(w.lines) < 20 {
			t.Fatalf("node %d: the walk reached only %d cache lines", id, len(w.lines))
		}
		for l := range w.lines {
			if o, ok := owner[l]; ok && o != sh {
				t.Errorf("node %d (shard %d) shares the cache line at %#x with shard %d", id, sh, l, o)
			}
			owner[l] = sh
		}
	}
}

// slabType is an instantiated slab.Slab, for its package path.
var slabType = reflect.TypeOf(slab.Slab[int]{})

// reflectSlabBytes sums Bytes(pad) over every slab.Slab that v, a struct
// in memory, holds — directly or in nested structs — and counts them.
// It reads the fields themselves, not a hand-written list.
func reflectSlabBytes(v reflect.Value, pad bool) (bytes int64, slabs int) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Struct {
			continue
		}
		// An unexported field's methods cannot be called through
		// reflect; the same memory, re-typed, can.
		f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
		if f.Type().PkgPath() == slabType.PkgPath() && strings.HasPrefix(f.Type().Name(), "Slab[") {
			out := f.Addr().MethodByName("Bytes").Call([]reflect.Value{reflect.ValueOf(pad)})
			bytes += out[0].Int()
			slabs++
			continue
		}
		b, n := reflectSlabBytes(f, pad)
		bytes, slabs = bytes+b, slabs+n
	}
	return bytes, slabs
}

// TestBytesCountedExactly: the byte figure Normalize checks against the
// node cap's budget is build's own counting pass, so it is exactly what
// the slabs of the built network take — with shards (padded slabs) and
// per-node overrides too. The hand-written bytes methods are checked
// against a reflective walk over every slab a shard holds, so a slab
// missing from one of them cannot under-count the budget.
func TestBytesCountedExactly(t *testing.T) {
	ovs, err := ParseOverrides("0-3:vcs=4,buf=2;9:delay=3", 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 3} {
		cfg := Config{K: 4, Router: router.DefaultConfig(router.SpeculativeVC), Shards: shards, Overrides: ovs, InjectionRate: 0.01, Seed: 1}
		if err := cfg.Normalize(); err != nil {
			t.Fatal(err)
		}
		want := slabBytes(cfg.countSlabs())
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pad := len(n.slabs) > 1
		var got, walked int64
		for i := range n.slabs {
			got += n.slabs[i].bytes(pad)
			b, slabs := reflectSlabBytes(reflect.ValueOf(&n.slabs[i]).Elem(), pad)
			if slabs < 20 {
				t.Fatalf("shards=%d: the walk found only %d slabs in a shard", shards, slabs)
			}
			walked += b
		}
		n.Close()
		if got != want || got != walked || got == 0 {
			t.Errorf("shards=%d: the slabs take %d bytes by their bytes methods and %d by a walk over every slab; Normalize counted %d", shards, got, walked, want)
		}
	}
}

// TestBudgetFitsDefaults: the byte budget grows with the port count, so
// every router kind at its default VCs and buffer depth fits under the
// default node cap on the largest networks of many ports — a 3-D mesh
// and torus, a 7-cube torus, a 14-dimension hypercube and a binary
// 14-cube mesh — not just the 2-D mesh the per-node figure is set by.
func TestBudgetFitsDefaults(t *testing.T) {
	for _, spec := range []string{"mesh:k=128", "torus:k=128", "ring:16384", "mesh:k=25,n=3", "torus:k=25,n=3", "torus:k=4,n=7", "hypercube:16384", "mesh:k=2,n=14"} {
		topo, err := topology.New(spec, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range router.Kinds() {
			cfg := Config{Topo: topo, Router: router.DefaultConfig(kind), InjectionRate: 0.01}
			if err := cfg.CheckBytes(); err != nil && !strings.Contains(err.Error(), "deadlock") {
				t.Errorf("%s, %v at defaults: %v", spec, kind, err)
			}
		}
	}
}

// TestOversizedNetworkRefused: per-router bytes grow with VCs × buffer
// depth, so a network can outgrow memory below the node cap; New and
// CheckBytes refuse one whose state exceeds what the cap stands for,
// naming the bytes, before anything is allocated. cap= raises the
// budget with the node cap.
func TestOversizedNetworkRefused(t *testing.T) {
	rc := router.DefaultConfig(router.SpeculativeVC)
	rc.VCs, rc.BufPerVC = 12, 4096
	cfg := Config{K: 32, Router: rc, InjectionRate: 0.01}
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "bytes of router, wire and source state") {
		t.Fatalf("New(k=32, 12 VCs × 4096 flits) = %v, want the byte budget error", err)
	}
	err := cfg.CheckBytes() // every default is filled before the bytes are checked
	if bytes := slabBytes(cfg.countSlabs()); bytes != 11_289_245_696 || err == nil || !strings.Contains(err.Error(), "needs "+strconv.FormatInt(bytes, 10)+" bytes") {
		t.Errorf("error %v does not name the %d bytes the network needs", err, bytes)
	}

	// 64 routers of 8 VCs × 256 flits take tens of megabytes: refused at
	// a cap of 64 nodes (448 KiB), accepted at the default (112 MiB).
	rc.VCs, rc.BufPerVC = 8, 256
	small, err := topology.New("mesh:k=8,cap=64", 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg = Config{Topo: small, Router: rc, InjectionRate: 0.01}
	if err := cfg.CheckBytes(); err == nil {
		t.Errorf("a 64-node cap accepted a %d-byte network", slabBytes(cfg.countSlabs()))
	}
	cfg = Config{K: 8, Router: rc, InjectionRate: 0.01}
	if err := cfg.CheckBytes(); err != nil {
		t.Errorf("the default cap refused a %d-byte network: %v", slabBytes(cfg.countSlabs()), err)
	}
}
