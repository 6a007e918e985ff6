package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"
)

type color int

const (
	red color = iota
	green
	blue
)

// sample exercises every Coder primitive and helper once.
type sample struct {
	U8    uint8
	U32   uint32
	U64   uint64
	I32   int32
	I64   int64
	Int   int
	F64   float64
	Bool  bool
	Str   string
	Color color
	Strs  []string
	Pairs []pair
	Fixed []int64 // always len 3: coded without a length prefix
	Attrs map[string]float64
	Inner string // inside a section
}

type pair struct {
	K uint32
	V string
}

func codePair(c *Coder, p *pair) {
	c.U32(&p.K)
	c.Str(&p.V)
}

func (s *sample) code(c *Coder) {
	c.U8(&s.U8)
	c.U32(&s.U32)
	c.U64(&s.U64)
	c.I32(&s.I32)
	c.I64(&s.I64)
	c.Int(&s.Int)
	c.F64(&s.F64)
	c.Bool(&s.Bool)
	c.Str(&s.Str)
	Enum(c, &s.Color, blue, "color")
	Slice(c, &s.Strs, 4, (*Coder).Str)
	Slice(c, &s.Pairs, 8, codePair)
	Array(c, &s.Fixed, 3, 8, (*Coder).I64)
	keys, n := MapKeys(c, &s.Attrs, 12)
	for i := 0; i < n; i++ {
		var k string
		var v float64
		if !c.Decoding() {
			k, v = keys[i], s.Attrs[keys[i]]
		}
		c.Str(&k)
		c.F64(&v)
		if c.Decoding() {
			s.Attrs[k] = v
		}
	}
	sec := c.Begin()
	c.Str(&s.Inner)
	c.End(sec)
}

func encode(t *testing.T, s *sample) []byte {
	t.Helper()
	var w Writer
	c := Encoder(&w)
	s.code(c)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	return w.b
}

func samples() []sample {
	return []sample{
		{Fixed: []int64{0, 0, 0}},
		{
			U8: 0xfe, U32: 0xdeadbeef, U64: math.MaxUint64, I32: -7, I64: math.MinInt64, Int: -1,
			F64: math.Inf(-1), Bool: true, Str: "héllo\x00", Color: blue,
			Strs:  []string{"", "a", "bc"},
			Pairs: []pair{{1, "x"}, {0, ""}},
			Fixed: []int64{-1, 0, 1},
			Attrs: map[string]float64{"z": 1, "a": math.Copysign(0, -1), "m": 2.5},
			Inner: "nested",
		},
	}
}

// TestCoderRoundTrip: whatever a field list encodes, the same list
// decodes to an equal value, consuming the payload exactly; encoding is
// deterministic (maps in key order) and re-encoding the decoded value
// reproduces the bytes.
func TestCoderRoundTrip(t *testing.T) {
	for i, in := range samples() {
		payload := encode(t, &in)
		var out sample
		r := &Reader{b: payload}
		out.code(Decoder(r))
		if err := r.Close(); err != nil {
			t.Fatalf("sample %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("sample %d: round trip\n got %+v\nwant %+v", i, out, in)
		}
		if again := encode(t, &out); !bytes.Equal(again, payload) {
			t.Errorf("sample %d: re-encoding the decoded value changed the bytes", i)
		}
	}
}

// TestCoderTruncation: a valid payload cut at EVERY offset decodes to
// ErrBadSnapshot — never a panic, never silent success.
func TestCoderTruncation(t *testing.T) {
	in := samples()[1]
	payload := encode(t, &in)
	for cut := 0; cut < len(payload); cut++ {
		var out sample
		r := &Reader{b: payload[:cut]}
		out.code(Decoder(r))
		if err := r.Close(); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("payload truncated to %d of %d bytes: %v, want ErrBadSnapshot", cut, len(payload), err)
		}
	}
}

// TestCoderRejectsOutOfRangeEnum: the enum guard is part of the field.
func TestCoderRejectsOutOfRangeEnum(t *testing.T) {
	var w Writer
	w.U8(uint8(blue) + 1)
	var got color
	c := Decoder(w.Reader())
	if Enum(c, &got, blue, "color"); !errors.Is(c.Err(), ErrBadSnapshot) {
		t.Errorf("enum above max: %v, want ErrBadSnapshot", c.Err())
	}
}

// TestCoderOversizedLengthAllocatesNothing: a declared length the
// remaining bytes cannot back must fail before anything is sized by it.
// Measured in bytes, not testing.AllocsPerRun counts: the only
// allocations left are the handful that format the error, and how many
// those are depends on fmt's pools (the race detector drains them at
// random), while a collection sized by the bad length is megabytes.
func TestCoderOversizedLengthAllocatesNothing(t *testing.T) {
	const declared = 1 << 24
	var w Writer
	w.U32(declared) // sixteen million elements, then nothing
	payload := w.b
	var strs []string
	var attrs map[string]float64
	var fixed []int64
	for name, decode := range map[string]func(*Coder){
		"Slice":   func(c *Coder) { Slice(c, &strs, 4, (*Coder).Str) },
		"MapKeys": func(c *Coder) { MapKeys(c, &attrs, 4) },
		"Array":   func(c *Coder) { Array(c, &fixed, declared, 4, (*Coder).I64) },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := Decoder(&Reader{b: payload})
		decode(c)
		runtime.ReadMemStats(&after)
		if !errors.Is(c.Err(), ErrBadSnapshot) || strs != nil || attrs != nil || fixed != nil {
			t.Fatalf("%s accepted an oversized length: err %v, %d strs, %d attrs, %d fixed", name, c.Err(), len(strs), len(attrs), len(fixed))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 16<<10 {
			t.Errorf("%s allocated %d bytes on a declared length of %d elements, want only the error", name, got, declared)
		}
	}
}

// TestCheckAndFailAreDirectional: Check is the decoder's hook and does
// nothing while encoding; Fail is the encoder's and does nothing while
// decoding.
func TestCheckAndFailAreDirectional(t *testing.T) {
	var w Writer
	enc := Encoder(&w)
	enc.Check(false, "never recorded %d", 1)
	if enc.Err() != nil || len(w.b) != 0 {
		t.Errorf("Check while encoding: err %v, %d bytes written", enc.Err(), len(w.b))
	}
	boom := errors.New("boom")
	enc.Fail(boom)
	enc.Fail(errors.New("second"))
	if enc.Err() != boom {
		t.Errorf("Fail while encoding: %v, want the first failure", enc.Err())
	}
	dec := Decoder(w.Reader())
	if dec.Fail(boom); dec.Err() != nil {
		t.Errorf("Fail while decoding: %v", dec.Err())
	}
	dec.Check(true, "fine")
	if dec.Check(false, "bad %s", "field"); !errors.Is(dec.Err(), ErrBadSnapshot) {
		t.Errorf("Check while decoding: %v, want ErrBadSnapshot", dec.Err())
	}
}

// TestSectionMismatch: a section read exactly closes cleanly, and one
// that decodes to a different length than it declares is corrupt.
func TestSectionMismatch(t *testing.T) {
	var w Writer
	enc := Encoder(&w)
	inner, after := "inside", uint32(42)
	sec := enc.Begin()
	enc.Str(&inner)
	enc.End(sec)
	enc.U32(&after)

	r := w.Reader()
	dec := Decoder(r)
	sec = dec.Begin()
	var gotInner string
	dec.Str(&gotInner)
	dec.End(sec)
	var got uint32
	if dec.U32(&got); gotInner != inner || got != after || r.Close() != nil {
		t.Errorf("read %q then %d (want %q then %d), close %v", gotInner, got, inner, after, r.Close())
	}

	dec = Decoder(w.Reader())
	sec = dec.Begin()
	var b uint8
	dec.U8(&b) // one byte of a longer section
	if dec.End(sec); !errors.Is(dec.Err(), ErrBadSnapshot) {
		t.Errorf("short-read section: %v, want ErrBadSnapshot", dec.Err())
	}

	w = Writer{}
	w.U32(99) // section longer than the payload
	if dec = Decoder(w.Reader()); dec.Begin() < 0 || !errors.Is(dec.Err(), ErrBadSnapshot) {
		t.Errorf("oversized section: %v, want ErrBadSnapshot", dec.Err())
	}
}

// TestFrameOpen: the envelope round-trips a payload and rejects bad
// magic, version skew, a truncated CRC, a flipped payload bit and a
// declared length beyond the data.
func TestFrameOpen(t *testing.T) {
	var w Writer
	s := "payload"
	Encoder(&w).Str(&s)
	var frame bytes.Buffer
	if err := w.Frame(&frame); err != nil {
		t.Fatal(err)
	}
	good := frame.Bytes()
	r, err := Open(bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	var got string
	if Decoder(r).Str(&got); got != s || r.Close() != nil {
		t.Errorf("framed payload: %q, close %v", got, r.Close())
	}
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	bad := map[string][]byte{
		"empty":       nil,
		"bad magic":   mutate(func(b []byte) []byte { b[0] ^= 0xff; return b }),
		"old version": mutate(func(b []byte) []byte { b[len(Magic)]--; return b }),
		"new version": mutate(func(b []byte) []byte { b[len(Magic)]++; return b }),
		"short crc":   good[:len(good)-1],
		"no crc":      good[:len(good)-4],
		"bit flip":    mutate(func(b []byte) []byte { b[len(b)-6] ^= 1; return b }),
		"long length": mutate(func(b []byte) []byte { b[len(Magic)+4+3] = 0x7f; return b }),
		"huge length": mutate(func(b []byte) []byte { b[len(Magic)+4+7] = 0x7f; return b }),
	}
	for name, data := range bad {
		if _, err := Open(bytes.NewReader(data)); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: %v, want ErrBadSnapshot", name, err)
		}
	}
}

// TestOpenSizesThePayloadOnce: over a reader that reports its remaining
// bytes (Len, as *bytes.Reader does), Open reads a 1 MiB payload in one
// allocation instead of regrowing a buffer as bytes arrive; a reader
// that does not report them still gets the growing read. A header that
// declares more than the reader holds takes the growing read too, so it
// allocates no more than the bytes present.
func TestOpenSizesThePayloadOnce(t *testing.T) {
	var w Writer
	big := string(make([]byte, 1<<20))
	Encoder(&w).Str(&big)
	var frame bytes.Buffer
	if err := w.Frame(&frame); err != nil {
		t.Fatal(err)
	}
	good := frame.Bytes()
	open := func(r io.Reader) {
		if _, err := Open(r); err != nil {
			t.Fatal(err)
		}
	}
	sized := testing.AllocsPerRun(10, func() { open(bytes.NewReader(good)) })
	grown := testing.AllocsPerRun(10, func() { open(struct{ io.Reader }{bytes.NewReader(good)}) })
	if sized > 4 || grown <= sized {
		t.Errorf("Open of a 1 MiB payload: %v allocations over a sized reader, %v over an unsized one; want ≤ 4 and fewer than unsized", sized, grown)
	}

	lying := append([]byte(nil), good[:len(good)/2]...)
	binary.LittleEndian.PutUint64(lying[len(Magic)+4:], 1<<31) // 2 GiB declared, 0.5 MiB present
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Open(bytes.NewReader(lying))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("a length beyond the data: %v, want ErrBadSnapshot", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Errorf("a 2 GiB declared length over %d bytes allocated %d bytes", len(lying), got)
	}
}
