// Package snap is the binary snapshot codec underlying checkpoint /
// restore: a versioned, length-prefixed, CRC-protected format with a
// sticky-error reader that validates every length against the bytes
// actually remaining, so corrupt or adversarial inputs fail with a
// typed error instead of panicking or over-allocating.
//
// The format is deliberately simple — little-endian fixed-width
// integers, length-prefixed byte strings — because restore must
// reproduce executor state bit-for-bit and a self-describing format
// would only add places for drift to hide. A frame is Magic, Version,
// the payload length, the payload and its CRC-32. Every serialized
// structure lists its fields once, in wire order, against a Coder:
// the session header, plan table, subscriptions and topology in the
// root package's snapshot.go; the executor topology, reorder buffer
// and events in internal/stream/snapshot.go; the runtime, its sharing
// groups and plan references in internal/runtime/snapshot.go; the
// engine and everything it holds in internal/core/snapshot.go; the
// window cursor in internal/window/snapshot.go; aggregate nodes and
// specs in internal/agg/snapshot.go.
//
// The session codes every distinct compiled plan once, in a table the
// subscriptions and hosts index into, each entry as the plan's query
// text: restore parses and compiles it as Subscribe does, so the query
// parser is the one plan decoder. Not serialized: whatever the
// recompiled plan implies, catalog reference counts, value→id maps and
// eviction buckets (rebuilt from the id→value tables), sharing-group
// projections, sinks and subscription error states. Frames are
// byte-deterministic for plans with at most two binding slots; with
// three or more, interned-vector ids follow Go map iteration, so
// identical runs can write different frames that restore to the same
// results.
//
// Adding a field: add it to its structure's one field list, bump
// Version, regenerate the fixtures with `go run
// scripts/gen_fuzz_corpus.go`, and keep the parent's fleet frame as a
// seed_v* corpus file with a refusal test beside
// TestRestoreRefusesV3Frame — restore reads exactly one version.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// ErrBadSnapshot is wrapped by every decode failure: truncation,
// version skew, checksum mismatch, or structurally impossible lengths.
var ErrBadSnapshot = errors.New("bad snapshot")

// Magic identifies a COGRA snapshot stream.
const Magic = "COGRASNP"

// Version is the current snapshot format version. Restore accepts
// exactly this version: the format captures private executor state, so
// cross-version compatibility is out of scope (checkpoints are
// re-taken after an upgrade). Version 3 added the window-manager
// ceiling to the engine codec and the sharing-group section to the
// runtime codec; version 4 dropped the inline-session topology (every
// session now nests one executor blob); version 5 replaced the runtime
// codec's per-subscription engines and sharing-group mode machine with
// per-host sections (a subscription no longer owns an engine); version
// 6 codes each distinct plan once, in a table subscriptions and hosts
// index into, and dropped the fields of deleted options; version 7
// writes each plan table entry as its query text (query.Query.String),
// which restore parses and compiles like a new subscription.
const Version uint32 = 7

// Writer accumulates a snapshot payload in memory.
type Writer struct {
	b []byte
}

// Grow reserves room for n more payload bytes.
func (w *Writer) Grow(n int) { w.b = slices.Grow(w.b, n) }

// Len returns the payload bytes written so far.
func (w *Writer) Len() int { return len(w.b) }

func (w *Writer) U8(v uint8)   { w.b = append(w.b, v) }
func (w *Writer) U32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *Writer) U64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }

// Reader returns a payload reader over the bytes written so far (no
// envelope): the way to decode in-process what was just encoded.
func (w *Writer) Reader() *Reader { return &Reader{b: w.b} }

// Frame wraps the accumulated payload in the snapshot envelope —
// magic, version, payload length, payload, CRC-32 (IEEE) of the
// payload — and writes it to out.
func (w *Writer) Frame(out io.Writer) error {
	var hdr []byte
	hdr = append(hdr, Magic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, Version)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(w.b)))
	if _, err := out.Write(hdr); err != nil {
		return err
	}
	if _, err := out.Write(w.b); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(w.b))
	_, err := out.Write(crc[:])
	return err
}

// Reader decodes a snapshot payload with a sticky error: after the
// first failure every subsequent read returns zero values, so decode
// code reads fields unconditionally and checks Err once per region.
type Reader struct {
	b   []byte
	off int
	err error
}

// maxFrame bounds the declared payload length Open will buffer, so a
// corrupt header cannot drive an over-allocation. Snapshots of real
// sessions are far below this.
const maxFrame = 1 << 32 // 4 GiB

// Open validates the envelope (magic, version, length, CRC) from r and
// returns a payload reader. All failures wrap ErrBadSnapshot.
func Open(r io.Reader) (*Reader, error) {
	hdr := make([]byte, len(Magic)+4+8)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrBadSnapshot, err)
	}
	if string(hdr[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	ver := binary.LittleEndian.Uint32(hdr[len(Magic):])
	if ver != Version {
		return nil, fmt.Errorf("%w: version %d (this build reads version %d)", ErrBadSnapshot, ver, Version)
	}
	n := binary.LittleEndian.Uint64(hdr[len(Magic)+4:])
	if n > maxFrame {
		return nil, fmt.Errorf("%w: payload length %d exceeds limit", ErrBadSnapshot, n)
	}
	// Read payload + CRC in one allocation only when r vouches that the
	// bytes are already there (a *bytes.Reader or *bytes.Buffer reports
	// them through Len). Otherwise do not trust n: io.ReadAll of a
	// LimitReader grows the buffer only as bytes arrive, so a huge
	// declared length over a short stream fails cheaply.
	var body []byte
	var err error
	if lr, ok := r.(interface{ Len() int }); ok && lr.Len() >= 0 && uint64(lr.Len()) >= n+4 {
		body = make([]byte, n+4)
		_, err = io.ReadFull(r, body)
	} else {
		body, err = io.ReadAll(io.LimitReader(r, int64(n)+4))
	}
	if err != nil {
		return nil, fmt.Errorf("%w: reading payload: %v", ErrBadSnapshot, err)
	}
	if uint64(len(body)) != n+4 {
		return nil, fmt.Errorf("%w: truncated payload (%d of %d bytes)", ErrBadSnapshot, len(body), n+4)
	}
	payload, crc := body[:n], binary.LittleEndian.Uint32(body[n:])
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadSnapshot)
	}
	return &Reader{b: payload}, nil
}

// Rem returns the unread bytes remaining.
func (r *Reader) Rem() int { return len(r.b) - r.off }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s (offset %d)", ErrBadSnapshot, fmt.Sprintf(format, args...), r.off)
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Rem() < n {
		r.fail("need %d bytes, have %d", n, r.Rem())
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

func (r *Reader) U8() uint8 {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (r *Reader) U32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (r *Reader) U64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// Count reads a collection length and validates it against the bytes
// remaining, given a minimum encoded size per element, so a corrupt
// length can never drive an over-allocation: a slice of n elements is
// only ever allocated when at least n*elemMin bytes are actually
// present.
func (r *Reader) Count(elemMin int) int {
	n := r.U32()
	if r.err != nil || !r.fits(uint64(n), elemMin) {
		return 0
	}
	return int(n)
}

// fits reports whether n elements of at least elemMin bytes each can
// still follow, failing the reader when they cannot. n is unsigned and
// never multiplied, so neither a u32 count nor a negative int (which
// converts huge) can wrap past the check on a 32-bit build.
func (r *Reader) fits(n uint64, elemMin int) bool {
	if elemMin < 1 {
		elemMin = 1
	}
	if n > uint64(r.Rem()/elemMin) {
		r.fail("collection of %d elements (min %d bytes each) exceeds %d remaining bytes", n, elemMin, r.Rem())
		return false
	}
	return true
}

// Close verifies the payload was fully consumed.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.Rem() != 0 {
		r.fail("%d trailing bytes", r.Rem())
	}
	return r.err
}
