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
		wv := WireValue{Spec: v.Spec().String(), Count: v.Count, F: v.F, Valid: v.Valid}
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

// appendStr16 appends a u16-length-prefixed string, cut to 65,535 bytes.
func appendStr16(b []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// AppendIngest encodes an ingest request for tenant into b. An event a
// frame cannot carry — a string over 65,535 bytes, more than 65,535 sym
// or num attributes — is refused, never cut.
func AppendIngest(b []byte, tenant string, events []*cogra.Event) ([]byte, error) {
	if len(tenant) > math.MaxUint8 {
		return nil, fmt.Errorf("cograd: tenant name %d bytes long (max 255)", len(tenant))
	}
	b = append(b, opIngest, uint8(len(tenant)))
	b = append(b, tenant...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(events)))
	for _, e := range events {
		if len(e.Sym) > math.MaxUint16 || len(e.Num) > math.MaxUint16 {
			return nil, fmt.Errorf("cograd: event at time %d: %d sym and %d num attributes (max %d each)",
				e.Time, len(e.Sym), len(e.Num), math.MaxUint16)
		}
		longest, field := len(e.Type), "type"
		b = binary.LittleEndian.AppendUint64(b, uint64(e.Time))
		b = binary.LittleEndian.AppendUint64(b, uint64(e.ID))
		b = appendStr16(b, e.Type)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(e.Sym)))
		for k, v := range e.Sym {
			if n := max(len(k), len(v)); n > longest {
				longest, field = n, "sym"
			}
			b = appendStr16(b, k)
			b = appendStr16(b, v)
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(len(e.Num)))
		for k, v := range e.Num {
			if len(k) > longest {
				longest, field = len(k), "num"
			}
			b = appendStr16(b, k)
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		if longest > math.MaxUint16 {
			return nil, fmt.Errorf("cograd: event at time %d: a %s string is %d bytes long (max %d)",
				e.Time, field, longest, math.MaxUint16)
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
//
// Strings have one table; sections have one per syntax and kind, so no
// JSON text can ever hit a map interned from frame bytes or the reverse.
type Decoder struct {
	strs              internTable[string]
	frameSym, jsonSym internTable[map[string]string]
	frameNum, jsonNum internTable[map[string]float64]
	young             int // estimated bytes of the five young generations
}

// A Decoder lives as long as its source, so its tables are bounded in
// bytes by what recent requests used: nothing longer than maxInternKey
// is interned, and once the young generations' estimate passes
// internBudget every table swaps — old is dropped, young becomes old.
// A Decoder therefore holds at most two budgets, and a working set
// under one never swaps. Maps already handed out stay valid; they are
// only no longer shared. The budget was sized from a decode-only replay
// of the benchmark workloads: steady_fleet's working set (4,170
// strings, 5,160 sections, ≈ 3 MB estimated) and served_tenants'
// (0.06 MB) never swap.
const (
	maxInternKey = 1 << 10
	internBudget = 4 << 20
	// What a table slot or a map entry costs beyond the bytes of its
	// key, and what an attribute map costs before its first entry
	// (header and first slot group), both rounded up from Go 1.24's maps.
	internSlotBytes = 80
	internMapBytes  = 320
)

// internTable is one of a Decoder's intern tables, in two generations.
// young is keyed as it fills; at a swap its entries are re-keyed into
// old once, so that each carries its key and a hit in old re-enters
// young without allocating the key again.
type internTable[V any] struct {
	young map[string]V
	old   map[string]keyed[V]
}

type keyed[V any] struct {
	key string
	val V
}

// get returns the value interned under key, promoting a hit in old.
func (t *internTable[V]) get(d *Decoder, key []byte) (V, bool) {
	if v, ok := t.young[string(key)]; ok {
		return v, true
	}
	e, ok := t.old[string(key)]
	if ok {
		t.put(d, e.key, e.val)
	}
	return e.val, ok
}

// put interns v under key in young and charges it to the budget.
func (t *internTable[V]) put(d *Decoder, key string, v V) {
	if t.young == nil {
		t.young = make(map[string]V, 64)
	}
	t.young[key] = v
	if d.young += internCost(key, v); d.young > internBudget {
		d.strs.swap()
		d.frameSym.swap()
		d.frameNum.swap()
		d.jsonSym.swap()
		d.jsonNum.swap()
		d.young = 0
	}
}

func (t *internTable[V]) swap() {
	t.old = make(map[string]keyed[V], len(t.young))
	for k, v := range t.young {
		t.old[k] = keyed[V]{k, v}
	}
	t.young = nil
}

// internCost estimates what an entry holds: its key and a slot, and for
// a section also its map and the map's strings, which are no longer
// than the key and may be in no string table — so the key counts twice.
func internCost(key string, v any) int {
	entries := 0
	switch m := v.(type) {
	case string:
		return len(key) + internSlotBytes
	case map[string]string:
		entries = len(m)
	case map[string]float64:
		entries = len(m)
	}
	return 2*len(key) + internMapBytes + internSlotBytes*(1+entries)
}

func (d *Decoder) str(b []byte) string {
	if len(b) > maxInternKey {
		return string(b)
	}
	if s, ok := d.strs.get(d, b); ok {
		return s
	}
	s := string(b)
	d.strs.put(d, s, s)
	return s
}

// section walks past n attributes — a str16 key, then a str16 value or,
// when f64, an f64 — and returns the raw bytes from start through the
// current offset: the intern key for a whole attribute section.
func (r *frameReader) section(start, n int, f64 bool) []byte {
	for j := 0; j < n && !r.bad; j++ {
		r.bytes(int(r.u16()))
		if f64 {
			r.bytes(8)
		} else {
			r.bytes(int(r.u16()))
		}
	}
	if r.bad {
		return nil
	}
	return r.buf[start:r.off]
}

// frameSection decodes one event's sym or num section, returning the map
// interned in t under the section's bytes when this Decoder saw them
// recently, else a fresh one, which it interns.
func frameSection[V string | float64](d *Decoder, r *frameReader, t *internTable[map[string]V]) map[string]V {
	start := r.off
	n := int(r.u16())
	if n == 0 || r.bad {
		return nil
	}
	var v V
	_, f64 := any(&v).(*float64)
	sect := r.section(start, n, f64)
	if r.bad {
		return nil
	}
	intern := len(sect) <= maxInternKey
	if intern {
		if m, ok := t.get(d, sect); ok {
			return m
		}
	}
	rr := frameReader{buf: sect, off: 2}
	m := make(map[string]V, n)
	for range n {
		k := d.str(rr.str16b())
		switch p := any(&v).(type) {
		case *string:
			*p = d.str(rr.str16b())
		case *float64:
			*p = math.Float64frombits(rr.u64())
		}
		m[k] = v
	}
	if intern {
		t.put(d, string(sect), m)
	}
	return m
}

// DecodeIngest decodes an ingest request payload (without the frame
// length prefix) with a fresh Decoder. Hot callers (the TCP connection
// loop) hold a Decoder instead.
func DecodeIngest(payload []byte) (tenant string, events []*cogra.Event, err error) {
	return new(Decoder).DecodeIngest(payload)
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
	// An event encodes to >= 22 bytes; a count field promising more
	// events than the payload could hold is structurally impossible.
	// Compared unsigned: on a 32-bit build int(count) can go negative.
	count := r.u32()
	if uint64(count) > uint64(len(payload)/22+1) {
		return "", nil, fmt.Errorf("%w: event count %d exceeds payload capacity", ErrFrame, count)
	}
	n := int(count)
	arena := make([]cogra.Event, n)
	events = make([]*cogra.Event, 0, n)
	for i := 0; i < n && !r.bad; i++ {
		e := &arena[i]
		e.Time = int64(r.u64())
		e.ID = int64(r.u64())
		e.Type = d.str(r.str16b())
		e.Sym = frameSection(d, &r, &d.frameSym)
		e.Num = frameSection(d, &r, &d.frameNum)
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
		n := r.u32()
		if r.bad || r.off != len(payload) || n > math.MaxInt32 {
			return 0, ErrFrame
		}
		return int(n), nil
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
