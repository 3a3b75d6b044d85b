// Package checkpoint is a content-addressed on-disk result store: one
// file per entry, named by the hex of a caller-derived sha256 key. It
// backs the harness's crash-safe sweeps — each completed job is
// persisted as it finishes, and a restarted sweep loads the completed
// entries and recomputes only the remainder.
//
// Durability and integrity rules:
//
//   - Writes are atomic: the entry is written to a temp file in the
//     store directory, fsynced, and renamed into place. A crash (or
//     SIGKILL) mid-write leaves either the old entry or a stray temp
//     file, never a torn entry.
//   - Every entry carries a magic string, a format version, and a
//     sha256 checksum of its payload. Get verifies all three.
//   - Corruption is quarantined, never fatal: a truncated, bit-flipped,
//     or wrong-version entry is renamed aside (<name>.quarantined) and
//     reported as a miss, so resume recomputes that job.
package checkpoint

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
)

const (
	// magic identifies a routersim checkpoint entry ("RouterSim
	// ChecKpoint").
	magic = "RSCK"
	// Version is the current on-disk entry format version. Entries
	// with any other version are rejected (and quarantined by Get):
	// a version bump invalidates the store wholesale, which is the
	// safe default for a cache of engine outputs.
	Version = 1
	// headerSize is magic + uint16 version + uint32 payload length +
	// sha256 payload checksum.
	headerSize = len(magic) + 2 + 4 + sha256.Size
	// entryExt names complete entries; temp files use a different
	// prefix so a crash never leaves something Get would read.
	entryExt = ".ck"
	// QuarantineExt is appended to a corrupt entry's name when Get
	// sets it aside.
	QuarantineExt = ".quarantined"
)

// ErrCorrupt wraps every decode failure so callers can distinguish
// corruption from I/O errors with errors.Is.
var ErrCorrupt = errors.New("checkpoint: corrupt entry")

// Key hashes the given parts into a store key. Each part is
// length-prefixed before hashing, so ("ab","c") and ("a","bc") derive
// different keys.
func Key(parts ...[]byte) [sha256.Size]byte {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key
}

// Encode frames a payload as a store entry: magic, version, payload
// length, payload sha256, payload.
func Encode(payload []byte) []byte {
	b := make([]byte, 0, headerSize+len(payload))
	b = append(b, magic...)
	b = binary.BigEndian.AppendUint16(b, Version)
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	sum := sha256.Sum256(payload)
	b = append(b, sum[:]...)
	return append(b, payload...)
}

// Decode validates an entry's framing and checksum and returns its
// payload. Malformed input of any kind — truncation, bad magic, an
// unsupported version, a length mismatch, a checksum mismatch — yields
// an error wrapping ErrCorrupt; Decode never panics.
func Decode(b []byte) ([]byte, error) {
	if len(b) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes, need at least %d", ErrCorrupt, len(b), headerSize)
	}
	if string(b[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, b[:len(magic)])
	}
	off := len(magic)
	if v := binary.BigEndian.Uint16(b[off:]); v != Version {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrCorrupt, v, Version)
	}
	off += 2
	n := binary.BigEndian.Uint32(b[off:])
	off += 4
	if uint64(len(b)-headerSize) != uint64(n) {
		return nil, fmt.Errorf("%w: payload length %d, header says %d", ErrCorrupt, len(b)-headerSize, n)
	}
	var want [sha256.Size]byte
	copy(want[:], b[off:])
	payload := b[headerSize:]
	if sha256.Sum256(payload) != want {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return payload, nil
}

// Store is a directory of checkpoint entries. It is safe for
// concurrent use by multiple goroutines of one process (every write is
// an independent temp-file+rename); concurrent writers of the same key
// converge on one of the (identical, content-addressed) values.
type Store struct {
	dir         string
	quarantined atomic.Int64
	// bufs holds Get's idle read buffers. A sync.Pool would do, but
	// under the race detector it drops a quarter of what is put back,
	// which the allocation gates (run under -race too) would count.
	bufs chan []byte
}

// Open creates the store directory if needed and returns a handle.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// One idle buffer per P: Gets beyond that many at once are rare, and
	// the buffer such a Get allocates is dropped afterwards.
	return &Store{dir: dir, bufs: make(chan []byte, runtime.GOMAXPROCS(0))}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Quarantined returns how many corrupt entries this handle has set
// aside so far.
func (s *Store) Quarantined() int { return int(s.quarantined.Load()) }

// path returns the entry file for a key.
func (s *Store) path(key [sha256.Size]byte) string {
	return filepath.Join(s.dir, hex.EncodeToString(key[:])+entryExt)
}

// Put atomically writes payload under key, replacing any prior entry.
func (s *Store) Put(key [sha256.Size]byte, payload []byte) error {
	f, err := os.CreateTemp(s.dir, "tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, werr := f.Write(Encode(payload))
	if werr == nil {
		// Flush to stable storage before the rename publishes the
		// entry: resume must never trust a name that points at
		// unwritten data.
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, s.path(key))
	}
	if werr != nil {
		os.Remove(tmp)
		return werr
	}
	return nil
}

// Get returns the payload stored under key. A missing entry is
// (nil, false, nil). A corrupt entry is quarantined — renamed to
// <name>.quarantined for inspection — and reported as a miss, so the
// caller recomputes; only real I/O failures return an error.
func (s *Store) Get(key [sha256.Size]byte) ([]byte, bool, error) {
	p := s.path(key)
	var buf []byte
	select {
	case buf = <-s.bufs:
	default:
		buf = make([]byte, 0, 1024) // a serialized JobResult is ≈0.6 KB
	}
	b, err := readFile(p, buf)
	defer func() {
		select {
		case s.bufs <- b[:0]: // keeps a buffer a large entry grew
		default:
		}
	}()
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, err
	}
	payload, err := Decode(b)
	if err != nil {
		os.Rename(p, p+QuarantineExt)
		s.quarantined.Add(1)
		return nil, false, nil
	}
	out := make([]byte, len(payload)) // payload points into the reused buffer
	copy(out, payload)
	return out, true, nil
}

// readFile appends the file at path to buf with open, read until EOF,
// and close: four system calls for an entry that fits buf. os.ReadFile
// adds an fstat to size its buffer, and os.Open first tries to register
// every file with the runtime's network poller (an fcntl and an
// epoll_ctl that a regular file always refuses). The calls come from
// package syscall on every platform, so no build tags are needed.
func readFile(path string, buf []byte) ([]byte, error) {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	for err == syscall.EINTR {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	}
	if err != nil {
		return buf, &os.PathError{Op: "open", Path: path, Err: err}
	}
	defer syscall.Close(fd)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := syscall.Read(fd, buf[len(buf):cap(buf)])
		switch {
		case err == syscall.EINTR: // interrupted before reading: retry
		case err != nil:
			return buf, &os.PathError{Op: "read", Path: path, Err: err}
		case n == 0:
			return buf, nil
		default:
			buf = buf[:len(buf)+n]
		}
	}
}

// Len reports how many complete entries the store currently holds
// (quarantined and temp files excluded).
func (s *Store) Len() (int, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == entryExt {
			n++
		}
	}
	return n, nil
}
