package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestKeyLengthPrefixed(t *testing.T) {
	a := Key([]byte("ab"), []byte("c"))
	b := Key([]byte("a"), []byte("bc"))
	if a == b {
		t.Fatal("Key must length-prefix parts: (ab,c) and (a,bc) collide")
	}
	if Key([]byte("ab"), []byte("c")) != a {
		t.Fatal("Key is not deterministic")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xA5}, 4096)} {
		got, err := Decode(Encode(payload))
		if err != nil {
			t.Fatalf("Decode(Encode(%d bytes)): %v", len(payload), err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round trip lost data: got %d bytes, want %d", len(got), len(payload))
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	valid := Encode([]byte("the quick brown fox"))
	cases := map[string][]byte{
		"empty":     {},
		"short":     valid[:headerSize-1],
		"truncated": valid[:len(valid)-3],
		"extended":  append(append([]byte{}, valid...), 0),
		"bad magic": append([]byte("JUNK"), valid[4:]...),
	}
	flip := append([]byte{}, valid...)
	flip[len(flip)-1] ^= 0x01
	cases["bit flip in payload"] = flip
	wrongVer := append([]byte{}, valid...)
	binary.BigEndian.PutUint16(wrongVer[4:], Version+1)
	cases["wrong version"] = wrongVer

	for name, b := range cases {
		if _, err := Decode(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestStorePutGet(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key([]byte("job"))
	if _, ok, err := s.Get(key); ok || err != nil {
		t.Fatalf("Get on empty store = ok=%v err=%v, want miss", ok, err)
	}
	if err := s.Put(key, []byte("result")); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(key)
	if err != nil || !ok || string(got) != "result" {
		t.Fatalf("Get = %q ok=%v err=%v, want result", got, ok, err)
	}
	// Overwrite wins.
	if err := s.Put(key, []byte("result2")); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := s.Get(key); string(got) != "result2" {
		t.Fatalf("Get after overwrite = %q, want result2", got)
	}
	if n, err := s.Len(); n != 1 || err != nil {
		t.Fatalf("Len = %d, %v, want 1 entry", n, err)
	}
	// No temp droppings left behind.
	ents, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "tmp-") {
			t.Errorf("stray temp file %s after Put", e.Name())
		}
	}
}

// TestStoreQuarantinesCorruption: a corrupted entry is a miss, the bad
// file is renamed aside, and a subsequent Put repairs the slot.
func TestStoreQuarantinesCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key([]byte("job"))
	if err := s.Put(key, []byte("result")); err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit on disk.
	b, err := os.ReadFile(s.path(key))
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0x80
	if err := os.WriteFile(s.path(key), b, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok, err := s.Get(key); ok || err != nil {
		t.Fatalf("Get of corrupt entry = ok=%v err=%v, want quiet miss", ok, err)
	}
	if s.Quarantined() != 1 {
		t.Fatalf("Quarantined = %d, want 1", s.Quarantined())
	}
	if _, err := os.Stat(s.path(key) + QuarantineExt); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	if _, err := os.Stat(s.path(key)); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry still in place: %v", err)
	}

	// The slot is writable again and the quarantined copy survives.
	if err := s.Put(key, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	got, ok, _ := s.Get(key)
	if !ok || string(got) != "fresh" {
		t.Fatalf("Get after repair = %q ok=%v, want fresh", got, ok)
	}
	if _, err := os.Stat(s.path(key) + QuarantineExt); err != nil {
		t.Fatalf("quarantined copy removed by repair: %v", err)
	}
}

// TestStoreConcurrentQuarantine: the Store promises safety for
// concurrent goroutines, and that includes its quarantine count — run
// under -race, eight goroutines each Get a distinct corrupt entry.
func TestStoreConcurrentQuarantine(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	keys := make([][32]byte, n)
	for i := range keys {
		keys[i] = Key([]byte{byte(i)})
		entry := Encode([]byte("result"))
		entry[len(entry)-1] ^= 0x80
		if err := os.WriteFile(s.path(keys[i]), entry, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, key := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ok, err := s.Get(key); ok || err != nil {
				t.Errorf("Get of corrupt entry = ok=%v err=%v, want quiet miss", ok, err)
			}
		}()
	}
	wg.Wait()
	if got := s.Quarantined(); got != n {
		t.Errorf("Quarantined = %d after %d concurrent corrupt Gets", got, n)
	}
}

// TestStoreTruncatedEntry covers the crash shape the temp+rename
// protocol prevents for writes but a failing disk can still produce:
// an entry file shorter than its header claims.
func TestStoreTruncatedEntry(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key([]byte("job"))
	if err := s.Put(key, bytes.Repeat([]byte("r"), 256)); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(s.path(key))
	if err := os.WriteFile(s.path(key), b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(key); ok || err != nil {
		t.Fatalf("Get of truncated entry = ok=%v err=%v, want quiet miss", ok, err)
	}
	if s.Quarantined() != 1 {
		t.Fatalf("Quarantined = %d, want 1", s.Quarantined())
	}
}

// TestStoreGetCases: the entry shapes at the edges of Get's read path
// agree with os.ReadFile + Decode, including an entry larger than the
// read buffer; a directory at the entry path is an I/O error, not
// corruption, and a missing entry is a quiet miss.
func TestStoreGetCases(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	valid := Encode([]byte("the quick brown fox"))
	for name, data := range map[string][]byte{
		"empty file":        {},
		"header only":       valid[:headerSize],
		"one trailing byte": append(append([]byte{}, valid...), 0),
		"64 KiB payload":    Encode(bytes.Repeat([]byte{0x5A}, 64<<10)),
	} {
		t.Run(name, func(t *testing.T) { getMatchesReference(t, s, Key([]byte(name)), data) })
	}

	dirKey := Key([]byte("directory"))
	if err := os.Mkdir(s.path(dirKey), 0o755); err != nil {
		t.Fatal(err)
	}
	q := s.Quarantined()
	if _, ok, err := s.Get(dirKey); ok || err == nil {
		t.Errorf("Get of a directory = ok=%v err=%v, want an error", ok, err)
	}
	if fi, err := os.Stat(s.path(dirKey)); err != nil || !fi.IsDir() || s.Quarantined() != q {
		t.Errorf("Get of a directory quarantined it (stat %v, count %d → %d)", err, q, s.Quarantined())
	}

	if _, ok, err := s.Get(Key([]byte("missing"))); ok || err != nil || s.Quarantined() != q {
		t.Errorf("Get of a missing entry = ok=%v err=%v, quarantined %d → %d, want a quiet miss", ok, err, q, s.Quarantined())
	}
}

func TestOpenCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Key([]byte("k")), []byte("v")); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkStorePut measures the per-job checkpoint write cost — the
// price a resumable sweep pays per completed job (encode, checksum,
// temp file, fsync, rename) at a typical serialized-JobResult size.
func BenchmarkStorePut(b *testing.B) {
	store, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte(`{"index":1,"latency":34.42} `), 32) // ~900 B, a typical JobResult
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		var key [32]byte
		binary.BigEndian.PutUint64(key[:], uint64(i))
		if err := store.Put(key, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreGet measures the per-entry load cost on resume.
func BenchmarkStoreGet(b *testing.B) {
	store, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte(`{"index":1,"latency":34.42} `), 32)
	var key [32]byte
	if err := store.Put(key, payload); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		got, ok, err := store.Get(key)
		if err != nil || !ok || len(got) != len(payload) {
			b.Fatalf("Get: %v %v %d", err, ok, len(got))
		}
	}
}
