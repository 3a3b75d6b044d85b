package checkpoint

import (
	"bytes"
	"encoding/binary"
	"os"
	"testing"
)

// FuzzCheckpointDecode feeds arbitrary bytes to the store-entry
// decoder. The invariants: Decode never panics, anything it accepts
// survives an Encode→Decode round trip bit-exactly, and re-framing an
// accepted payload reproduces the input (the format has exactly one
// encoding per payload). Seeds cover the valid shape plus every
// rejection path — truncation, bit flips, wrong version, bad magic.
func FuzzCheckpointDecode(f *testing.F) {
	valid := Encode([]byte(`{"index":3,"seed":12345,"result":{"latency":29.84}}`))
	f.Add(valid)
	f.Add(Encode(nil))
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add(valid[:headerSize])
	f.Add(valid[:len(valid)-1])
	flip := append([]byte{}, valid...)
	flip[headerSize+4] ^= 0x10
	f.Add(flip)
	wrongVer := append([]byte{}, valid...)
	binary.BigEndian.PutUint16(wrongVer[len(magic):], Version+7)
	f.Add(wrongVer)

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := Decode(data)
		if err != nil {
			return // malformed input must error, not panic — reaching here is the pass
		}
		if again, err := Decode(Encode(payload)); err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("round trip not identity: err=%v", err)
		}
		if !bytes.Equal(Encode(payload), data) {
			t.Fatalf("accepted entry is not the canonical encoding of its payload")
		}
	})
}

// FuzzStoreGet holds Get's own read path to a reference: whatever bytes
// the entry file holds, Get must answer as os.ReadFile + Decode do (see
// getMatchesReference). One store serves every input, so Get's reused
// read buffers carry over from one input to the next; an earlier hit
// must not change when a later Get reads other bytes.
func FuzzStoreGet(f *testing.F) {
	valid := Encode([]byte(`{"index":3,"seed":12345,"result":{"latency":29.84}}`))
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:headerSize])
	f.Add(append(append([]byte{}, valid...), 0))
	f.Add(Encode(bytes.Repeat([]byte("x"), 5000)))
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	key := Key([]byte("fuzz"))
	var prev, prevWant []byte
	f.Fuzz(func(t *testing.T, data []byte) {
		got := getMatchesReference(t, s, key, data)
		if !bytes.Equal(prev, prevWant) {
			t.Fatal("a later Get changed the payload an earlier Get returned")
		}
		prev, prevWant = got, bytes.Clone(got)
	})
}

// getMatchesReference writes data as key's entry file and checks Get
// against os.ReadFile + Decode. Decode accepts: a hit with Decode's
// payload, the file left in place. Decode rejects: a quiet miss, the
// file renamed to <name>.quarantined and counted. Either way, no error.
// It returns Get's payload.
func getMatchesReference(t *testing.T, s *Store, key [32]byte, data []byte) []byte {
	t.Helper()
	p := s.path(key)
	os.Remove(p + QuarantineExt)
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ref, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	want, derr := Decode(ref)
	q := s.Quarantined()
	got, ok, err := s.Get(key)
	if err != nil {
		t.Fatalf("Get of a %d-byte entry: %v", len(data), err)
	}
	if ok != (derr == nil) || !bytes.Equal(got, want) {
		t.Fatalf("Get = %d bytes, hit %v; reference = %d bytes, Decode error %v", len(got), ok, len(want), derr)
	}
	if ok && cap(got) != len(got) {
		t.Errorf("Get's payload has cap %d, len %d: want an exactly sized copy", cap(got), len(got))
	}
	corrupt, wantQ := derr != nil, 0
	if corrupt {
		wantQ = 1
	}
	_, qerr := os.Stat(p + QuarantineExt)
	_, perr := os.Stat(p)
	if n := s.Quarantined() - q; n != wantQ || (qerr == nil) != corrupt || (perr == nil) == corrupt {
		t.Fatalf("Decode error %v, yet Get counted %d quarantined (quarantine file: %v, entry: %v)", derr, n, qerr, perr)
	}
	return got
}
