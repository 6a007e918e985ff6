package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	cogra "repro"
)

// Wire shapes shared by the HTTP+JSON surface and the examples/client.
// Events travel as {"time":..,"type":"Stock","sym":{..},"num":{..}};
// results carry both the structured fields and a preformatted "text"
// line identical to Result.String(), so a client can diff a served
// stream against an embedded cograql run byte for byte.

// WireEvent is the JSON form of one stream event.
type WireEvent struct {
	Time int64              `json:"time"`
	Type string             `json:"type"`
	ID   int64              `json:"id,omitempty"`
	Sym  map[string]string  `json:"sym,omitempty"`
	Num  map[string]float64 `json:"num,omitempty"`
}

// ToWireEvent converts an engine event into its wire form.
func ToWireEvent(e *cogra.Event) WireEvent {
	return WireEvent{Time: e.Time, Type: e.Type, ID: e.ID, Sym: e.Sym, Num: e.Num}
}

// WireValue is one reported aggregate: its RETURN-clause spec text
// ("COUNT(*)", "MAX(Stock.price)") and the raw count/float pair, a
// lossless projection of agg.Value (Valid false means no trend
// contributed — the display form renders "null").
type WireValue struct {
	Spec  string  `json:"spec"`
	Count uint64  `json:"count"`
	F     float64 `json:"f"`
	Valid bool    `json:"valid"`
}

// WireResult is the JSON form of one aggregation result.
type WireResult struct {
	Wid    int64       `json:"wid"`
	Start  int64       `json:"start"`
	End    int64       `json:"end"`
	Group  []string    `json:"group,omitempty"`
	Values []WireValue `json:"values"`
	// Text is Result.String() — the display form cograql prints, kept
	// on the wire so differential tooling can diff byte-identically.
	Text string `json:"text"`
}

// ToWireResult converts an engine result into its wire form.
func ToWireResult(r cogra.Result) WireResult {
	out := WireResult{Wid: r.Wid, Start: r.Start, End: r.End, Group: r.Group, Text: r.String()}
	out.Values = make([]WireValue, len(r.Values))
	for i, v := range r.Values {
		wv := WireValue{Spec: v.Spec.String(), Count: v.Count, F: v.F, Valid: v.Valid}
		if !v.Valid {
			// An invalid AVG carries NaN, which JSON cannot encode; the
			// float is meaningless without Valid anyway.
			wv.F = 0
		}
		out.Values[i] = wv
	}
	return out
}

// Framed-TCP bulk-ingest codec. Bulk producers use a persistent TCP
// connection carrying length-prefixed binary frames, which skips the
// per-request HTTP cost and JSON's text (the ≤25%-overhead ingest path
// the benchmarks gate); both syntaxes decode through one Decoder.
// Layout, all little-endian:
//
//	frame   := u32 payloadLen | payload           (len caps at 64 MiB)
//	request := 'I' | str8 tenant | u32 n | event*n
//	event   := i64 time | i64 id | str16 type
//	           | u16 nSym | (str16 key | str16 val)*nSym
//	           | u16 nNum | (str16 key | f64)*nNum
//	reply   := 'O' | u32 accepted
//	         | 'E' | str8 code | str16 message
//	str8    := u8  len | bytes
//	str16   := u16 len | bytes
//
// One reply per request, in order; a connection carries any number of
// requests. An 'E' reply leaves the connection usable — framing is
// intact, only the request failed.

const (
	maxFrameLen = 64 << 20
	opIngest    = 'I'
	opOK        = 'O'
	opErr       = 'E'
)

// ErrFrame reports a framing/codec violation; the connection carrying
// it is beyond recovery and must be closed.
var ErrFrame = fmt.Errorf("cograd: malformed frame")

// appendStr16 appends a u16-length-prefixed string (caps at 64 KiB).
func appendStr16(b []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// AppendIngest encodes an ingest request for tenant into b.
func AppendIngest(b []byte, tenant string, events []*cogra.Event) ([]byte, error) {
	if len(tenant) > math.MaxUint8 {
		return nil, fmt.Errorf("cograd: tenant name %d bytes long (max 255)", len(tenant))
	}
	b = append(b, opIngest, uint8(len(tenant)))
	b = append(b, tenant...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(events)))
	for _, e := range events {
		b = binary.LittleEndian.AppendUint64(b, uint64(e.Time))
		b = binary.LittleEndian.AppendUint64(b, uint64(e.ID))
		b = appendStr16(b, e.Type)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(e.Sym)))
		for k, v := range e.Sym {
			b = appendStr16(b, k)
			b = appendStr16(b, v)
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(len(e.Num)))
		for k, v := range e.Num {
			b = appendStr16(b, k)
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b, nil
}

// frameReader decodes one frame payload with bounds checking; every
// read error collapses into ErrFrame.
type frameReader struct {
	buf []byte
	off int
	bad bool
}

func (r *frameReader) fail() {
	r.bad = true
	r.off = len(r.buf)
}

func (r *frameReader) u8() uint8 {
	if r.off+1 > len(r.buf) {
		r.fail()
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *frameReader) u16() uint16 {
	if r.off+2 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

func (r *frameReader) u32() uint32 {
	if r.off+4 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *frameReader) u64() uint64 {
	if r.off+8 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *frameReader) bytes(n int) []byte {
	if n < 0 || r.off+n > len(r.buf) {
		r.fail()
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *frameReader) str8() string  { return string(r.bytes(int(r.u8()))) }
func (r *frameReader) str16() string { return string(r.bytes(int(r.u16()))) }

// str16b returns the raw bytes of a str16 without copying; only valid
// until the payload buffer is reused.
func (r *frameReader) str16b() []byte { return r.bytes(int(r.u16())) }

// maxInternEntries caps a connection's intern table; a high-cardinality
// stream stops interning instead of growing without bound.
const maxInternEntries = 1 << 16

// Decoder decodes ingest requests for one source: binary frames for a
// TCP connection (DecodeIngest), JSON bodies for a tenant's HTTP route
// (DecodeJSONIngest). It interns the low-cardinality data every event
// repeats — type names, attribute keys, symbol values, and whole
// attribute maps keyed by their encoded bytes — so a long-lived source
// allocates almost nothing after warm-up (map lookups keyed by
// string(bytes) do not allocate on a hit). Interned attribute maps are
// SHARED across decoded events; that is safe because the engine treats
// event attributes as immutable once pushed — nothing downstream of
// PushBatch writes to Sym or Num. The zero value works.
type Decoder struct {
	intern    map[string]string
	symIntern map[string]map[string]string
	numIntern map[string]map[string]float64
	// JSON sections have tables of their own, so no JSON text can ever
	// hit a map interned from frame bytes or the reverse. jsonHeld
	// estimates the bytes the JSON path put in the tables (jsonSpend).
	jsonSymIntern map[string]map[string]string
	jsonNumIntern map[string]map[string]float64
	jsonHeld      int
}

func (d *Decoder) str(b []byte) string {
	if d == nil {
		return string(b)
	}
	if s, ok := d.intern[string(b)]; ok {
		return s
	}
	s := string(b)
	if d.intern == nil {
		d.intern = make(map[string]string, 64)
	}
	if len(d.intern) < maxInternEntries {
		d.intern[s] = s
	}
	return s
}

// section walks past n str16-framed fields (pairs count as two) and
// returns the raw bytes from start through the current offset — the
// intern key for a whole attribute section.
func (r *frameReader) section(start, nFields int) []byte {
	for j := 0; j < nFields && !r.bad; j++ {
		r.bytes(int(r.u16()))
	}
	if r.bad {
		return nil
	}
	return r.buf[start:r.off]
}

// symMap decodes one event's symbolic-attribute section, returning an
// interned (shared, read-only) map when the same section bytes were
// seen before on this connection.
func (d *Decoder) symMap(r *frameReader) map[string]string {
	start := r.off
	ns := int(r.u16())
	if ns == 0 || r.bad {
		return nil
	}
	if d == nil {
		m := make(map[string]string, ns)
		for j := 0; j < ns && !r.bad; j++ {
			k := string(r.str16b())
			m[k] = string(r.str16b())
		}
		return m
	}
	sect := r.section(start, 2*ns)
	if r.bad {
		return nil
	}
	if m, ok := d.symIntern[string(sect)]; ok {
		return m
	}
	rr := frameReader{buf: sect, off: 2}
	m := make(map[string]string, ns)
	for j := 0; j < ns; j++ {
		k := d.str(rr.str16b())
		m[k] = d.str(rr.str16b())
	}
	if d.symIntern == nil {
		d.symIntern = make(map[string]map[string]string, 64)
	}
	if len(d.symIntern) < maxInternEntries {
		d.symIntern[string(sect)] = m
	}
	return m
}

// numMap decodes one event's numeric-attribute section; same sharing
// contract as symMap. Numeric sections repeat less often (float values
// vary), so the table caps the same way and misses just build fresh.
func (d *Decoder) numMap(r *frameReader) map[string]float64 {
	start := r.off
	nn := int(r.u16())
	if nn == 0 || r.bad {
		return nil
	}
	if d == nil {
		m := make(map[string]float64, nn)
		for j := 0; j < nn && !r.bad; j++ {
			k := string(r.str16b())
			m[k] = math.Float64frombits(r.u64())
		}
		return m
	}
	sect := r.sectionF64(start, nn)
	if r.bad {
		return nil
	}
	if m, ok := d.numIntern[string(sect)]; ok {
		return m
	}
	rr := frameReader{buf: sect, off: 2}
	m := make(map[string]float64, nn)
	for j := 0; j < nn; j++ {
		k := d.str(rr.str16b())
		m[k] = math.Float64frombits(rr.u64())
	}
	if d.numIntern == nil {
		d.numIntern = make(map[string]map[string]float64, 64)
	}
	if len(d.numIntern) < maxInternEntries {
		d.numIntern[string(sect)] = m
	}
	return m
}

// sectionF64 walks past n (str16 key, f64 value) pairs and returns the
// raw bytes from start through the current offset.
func (r *frameReader) sectionF64(start, n int) []byte {
	for j := 0; j < n && !r.bad; j++ {
		r.bytes(int(r.u16()))
		r.u64()
	}
	if r.bad {
		return nil
	}
	return r.buf[start:r.off]
}

// DecodeIngest decodes an ingest request payload (without the frame
// length prefix) with a fresh, intern-less decoder. Hot callers (the
// TCP connection loop) hold a Decoder instead.
func DecodeIngest(payload []byte) (tenant string, events []*cogra.Event, err error) {
	return (*Decoder)(nil).DecodeIngest(payload)
}

// DecodeIngest decodes an ingest request payload. It returns ErrFrame
// on any structural violation — never panics, never allocates
// proportionally to a lying count field (event allocation is bounded
// by the actual payload length). Event structs come from one
// batch-sized arena (a single allocation that lives exactly as long as
// the batch's longest-lived event — batch peers expire together under
// windowing, so the amplification is bounded), and repeated attribute
// sections decode to shared interned maps instead of fresh ones.
func (d *Decoder) DecodeIngest(payload []byte) (tenant string, events []*cogra.Event, err error) {
	r := frameReader{buf: payload}
	if r.u8() != opIngest {
		return "", nil, fmt.Errorf("%w: unknown op", ErrFrame)
	}
	tenant = r.str8()
	n := int(r.u32())
	// An event encodes to >= 22 bytes; a count field promising more
	// events than the payload could hold is structurally impossible.
	if n > len(payload)/22+1 {
		return "", nil, fmt.Errorf("%w: event count %d exceeds payload capacity", ErrFrame, n)
	}
	arena := make([]cogra.Event, n)
	events = make([]*cogra.Event, 0, n)
	for i := 0; i < n && !r.bad; i++ {
		e := &arena[i]
		e.Time = int64(r.u64())
		e.ID = int64(r.u64())
		e.Type = d.str(r.str16b())
		e.Sym = d.symMap(&r)
		e.Num = d.numMap(&r)
		events = append(events, e)
	}
	if r.bad || r.off != len(payload) {
		return "", nil, fmt.Errorf("%w: truncated or trailing bytes", ErrFrame)
	}
	return tenant, events, nil
}

// AppendOK encodes a success reply carrying the accepted-event count.
func AppendOK(b []byte, accepted int) []byte {
	b = append(b, opOK)
	return binary.LittleEndian.AppendUint32(b, uint32(accepted))
}

// AppendErr encodes an error reply from its wire form.
func AppendErr(b []byte, w *WireError) []byte {
	b = append(b, opErr, uint8(min(len(w.Code), math.MaxUint8)))
	b = append(b, w.Code[:min(len(w.Code), math.MaxUint8)]...)
	return appendStr16(b, w.Message)
}

// DecodeReply decodes a reply payload into (accepted, nil) or
// (0, error): a *WireError for 'E' replies (DecodeWireError applies),
// ErrFrame for structural violations.
func DecodeReply(payload []byte) (int, error) {
	r := frameReader{buf: payload}
	switch r.u8() {
	case opOK:
		n := int(r.u32())
		if r.bad || r.off != len(payload) {
			return 0, ErrFrame
		}
		return n, nil
	case opErr:
		w := &WireError{Code: r.str8(), Message: r.str16()}
		if r.bad || r.off != len(payload) {
			return 0, ErrFrame
		}
		return 0, w
	default:
		return 0, fmt.Errorf("%w: unknown reply op", ErrFrame)
	}
}

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame, reusing buf when it is
// large enough. io.EOF before the first header byte means a clean end
// of stream; a partial header or body returns ErrFrame semantics via
// io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrameLen {
		return nil, fmt.Errorf("%w: frame length %d exceeds %d", ErrFrame, n, maxFrameLen)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}
