package snap

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
)

// Coder is the one description language of the snapshot format: a
// structure lists its fields once, in wire order, by pointer, and the
// same method encodes or decodes depending on which way the Coder
// runs. There is no second function to forget a field in.
//
// Decoding inherits the Reader's sticky error: after the first failure
// every primitive yields zero values and every collection is empty, so
// field lists run unconditionally; whoever acts on decoded values
// (builds an engine, indexes a table) looks at Err first. Encoding
// only reads through the pointers it is given.
type Coder struct {
	w   *Writer // encoding when set
	r   *Reader // decoding otherwise
	err error   // first Fail while encoding
}

// Encoder returns a Coder that appends to w.
func Encoder(w *Writer) *Coder { return &Coder{w: w} }

// Decoder returns a Coder that reads from r.
func Decoder(r *Reader) *Coder { return &Coder{r: r} }

// Decoding reports the direction: decode-only work (rebuilding
// indexes, validating against a plan, constructing engines) sits
// behind it.
func (c *Coder) Decoding() bool { return c.r != nil }

// Err returns the first failure: the reader's sticky ErrBadSnapshot
// when decoding, the first Fail when encoding.
func (c *Coder) Err() error {
	if c.r != nil {
		return c.r.err
	}
	return c.err
}

// Check is the decoder's validation hook: when ok is false the stream
// is marked bad (ErrBadSnapshot, first failure wins, offset appended).
// It does nothing while encoding. Per-element checks pass no args —
// boxing them would allocate on every element, failing or not.
func (c *Coder) Check(ok bool, format string, args ...any) {
	if c.r != nil && !ok {
		c.r.fail(format, args...)
	}
}

// Fail records why a structure cannot be encoded (a closed stream,
// say); first failure wins. It does nothing while decoding.
func (c *Coder) Fail(err error) {
	if c.w != nil && c.err == nil {
		c.err = err
	}
}

func (c *Coder) U8(p *uint8) {
	if c.r != nil {
		*p = c.r.U8()
	} else {
		c.w.U8(*p)
	}
}

func (c *Coder) U32(p *uint32) {
	if c.r != nil {
		*p = c.r.U32()
	} else {
		c.w.U32(*p)
	}
}

func (c *Coder) U64(p *uint64) {
	if c.r != nil {
		*p = c.r.U64()
	} else {
		c.w.U64(*p)
	}
}

// I32 codes a 32-bit id as its unsigned image.
func (c *Coder) I32(p *int32) {
	if c.r != nil {
		*p = int32(c.r.U32())
	} else {
		c.w.U32(uint32(*p))
	}
}

func (c *Coder) I64(p *int64) {
	if c.r != nil {
		*p = int64(c.r.U64())
	} else {
		c.w.U64(uint64(*p))
	}
}

// Int codes an int as 64 bits.
func (c *Coder) Int(p *int) {
	if c.r != nil {
		*p = int(c.r.U64())
	} else {
		c.w.U64(uint64(*p))
	}
}

func (c *Coder) F64(p *float64) {
	if c.r != nil {
		*p = math.Float64frombits(c.r.U64())
	} else {
		c.w.U64(math.Float64bits(*p))
	}
}

func (c *Coder) Bool(p *bool) {
	if c.r != nil {
		*p = c.r.U8() != 0
	} else if *p {
		c.w.U8(1)
	} else {
		c.w.U8(0)
	}
}

// Str codes a length-prefixed string.
func (c *Coder) Str(p *string) {
	if c.r != nil {
		*p = string(c.r.take(c.r.Count(1)))
	} else {
		c.w.U32(uint32(len(*p)))
		c.w.b = append(c.w.b, *p...)
	}
}

// Enum codes a small enumeration as one byte; decoding rejects values
// above max.
func Enum[T ~int](c *Coder, p *T, max T, what string) {
	v := uint8(*p)
	c.U8(&v)
	if c.r != nil {
		if *p = T(v); *p > max {
			c.r.fail("%s %d out of range", what, v)
		}
	}
}

// Len codes a collection length. Decoding goes through Reader.Count: n
// comes back 0 unless n*elemMin bytes really remain, so nothing is
// ever sized by a length the payload cannot back.
func (c *Coder) Len(n *int, elemMin int) {
	if c.r != nil {
		*n = c.r.Count(elemMin)
	} else {
		c.w.U32(uint32(*n))
	}
}

// Slice codes a length-prefixed slice, each element through each (a
// plain function or method expression — nothing is captured per
// element). Decoding allocates the slice once, at its validated
// length; an empty collection decodes to nil.
func Slice[S ~[]T, T any](c *Coder, xs *S, elemMin int, each func(*Coder, *T)) {
	n := len(*xs)
	c.Len(&n, elemMin)
	Array(c, xs, n, elemMin, each)
}

// Array codes exactly n elements with no length prefix, for
// collections whose length an earlier field or the plan implies. When
// encoding, *xs must hold n elements.
func Array[S ~[]T, T any](c *Coder, xs *S, n, elemMin int, each func(*Coder, *T)) {
	if c.r != nil {
		*xs = nil
		if n == 0 || c.r.err != nil || !c.r.fits(uint64(n), elemMin) {
			return
		}
		*xs = make(S, n)
	}
	for i := range *xs {
		each(c, &(*xs)[i])
	}
}

// MapKeys opens a map coded in ascending key order (map iteration
// order must not reach the bytes). Encoding, it writes the length and
// returns the sorted keys; decoding, it reads the validated length n,
// leaves *m an empty map sized for it (a nil map stays nil when n is
// 0), and returns no keys — the caller codes n (key, value) pairs and
// inserts what it decodes.
func MapKeys[K cmp.Ordered, V any](c *Coder, m *map[K]V, elemMin int) (keys []K, n int) {
	if c.r != nil {
		if n = c.r.Count(elemMin); n > 0 {
			*m = make(map[K]V, n)
		} else {
			clear(*m)
		}
		return nil, n
	}
	keys = make([]K, 0, len(*m))
	for k := range *m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	c.w.U32(uint32(len(keys)))
	return keys, len(keys)
}

// Begin opens a length-prefixed section; End closes it with the token
// Begin returned. Decoding, End insists the section was consumed
// exactly.
func (c *Coder) Begin() int {
	if c.r != nil {
		n := c.r.U32()
		if c.r.err == nil && uint64(n) > uint64(c.r.Rem()) {
			c.r.fail("section of %d bytes exceeds %d remaining bytes", n, c.r.Rem())
			return c.r.off
		}
		return c.r.off + int(n)
	}
	c.w.U32(0)
	return len(c.w.b)
}

func (c *Coder) End(sec int) {
	if c.r == nil {
		binary.LittleEndian.PutUint32(c.w.b[sec-4:], uint32(len(c.w.b)-sec))
	} else if c.r.err == nil && c.r.off != sec {
		c.r.fail("section ends at offset %d, decoded to %d", sec, c.r.off)
	}
}
