package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	cogra "repro"
)

func codecStream() []*cogra.Event {
	e1 := cogra.NewEvent("Stock", 10)
	e1.ID = 7
	e1.WithSym("sym", "ACME").WithNum("price", 101.5)
	e2 := cogra.NewEvent("Trade", 11)
	e2.WithSym("sym", "ACME").WithSym("venue", "X").WithNum("qty", 3).WithNum("px", math.Inf(1))
	e3 := cogra.NewEvent("Tick", 12) // no attributes at all
	return []*cogra.Event{e1, e2, e3}
}

func TestCodecIngestRoundTrip(t *testing.T) {
	events := codecStream()
	payload, err := AppendIngest(nil, "tenant-a", events)
	if err != nil {
		t.Fatal(err)
	}
	tenant, got, err := DecodeIngest(payload)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "tenant-a" {
		t.Fatalf("tenant = %q", tenant)
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if !reflect.DeepEqual(events[i], got[i]) {
			t.Errorf("event %d: %+v != %+v", i, events[i], got[i])
		}
	}
}

func TestCodecReplyRoundTrip(t *testing.T) {
	if n, err := DecodeReply(AppendOK(nil, 42)); err != nil || n != 42 {
		t.Fatalf("ok reply: (%d, %v)", n, err)
	}
	in := &WireError{Code: CodeBackpressure, Message: "slow down"}
	_, err := DecodeReply(AppendErr(nil, in))
	var out *WireError
	if !errors.As(err, &out) || out.Code != in.Code || out.Message != in.Message {
		t.Fatalf("err reply decoded to %v", err)
	}
}

// TestCodecMalformed: every structural violation is a typed ErrFrame,
// never a panic, and a lying count cannot drive allocation.
func TestCodecMalformed(t *testing.T) {
	good, err := AppendIngest(nil, "t", codecStream())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":      {},
		"unknown op": {'X', 0},
		"truncated":  good[:len(good)-3],
		"trailing":   append(append([]byte{}, good...), 0xFF),
	}
	// A count field promising a billion events in a tiny payload.
	lying := []byte{opIngest, 1, 't'}
	lying = binary.LittleEndian.AppendUint32(lying, 1<<30)
	cases["lying count"] = lying
	for name, payload := range cases {
		if _, _, err := DecodeIngest(payload); !errors.Is(err, ErrFrame) {
			t.Errorf("%s: err = %v, want ErrFrame", name, err)
		}
	}
	for name, payload := range map[string][]byte{
		"reply empty":     {},
		"reply unknown":   {'?'},
		"reply truncated": {opOK, 1, 2},
		"reply trailing":  {opOK, 1, 2, 3, 4, 5},
	} {
		if _, err := DecodeReply(payload); !errors.Is(err, ErrFrame) {
			t.Errorf("%s: err = %v, want ErrFrame", name, err)
		}
	}
}

// FuzzFrameDecode: a warm Decoder fed a damaged ingest payload never
// panics, and whatever it accepts re-encodes (AppendIngest) and decodes
// again to equal events. The seeds are TestCodecMalformed's cases plus
// every single-byte damage of a valid payload: each byte flipped, and
// the payload cut before it.
func FuzzFrameDecode(f *testing.F) {
	good, err := AppendIngest(nil, "t", codecStream())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{'X', 0})
	f.Add(append(append([]byte{}, good...), 0xFF))
	f.Add(binary.LittleEndian.AppendUint32([]byte{opIngest, 1, 't'}, 1<<30))
	for i := range good {
		damaged := append([]byte{}, good...)
		damaged[i] ^= 0xFF
		f.Add(damaged)
		f.Add(good[:i])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var d Decoder
		if _, _, err := d.DecodeIngest(good); err != nil {
			t.Fatal(err)
		}
		tenant, events, err := d.DecodeIngest(payload)
		if err != nil {
			if !errors.Is(err, ErrFrame) {
				t.Fatalf("untyped decode error %v", err)
			}
			return
		}
		again, err := AppendIngest(nil, tenant, events)
		if err != nil {
			t.Fatal(err)
		}
		tenant2, events2, err := DecodeIngest(again)
		if err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		if tenant2 != tenant {
			t.Fatalf("tenant %q re-decodes as %q", tenant, tenant2)
		}
		if diff := eventsDiff(events2, events); diff != "" {
			t.Fatal(diff)
		}
	})
}

func TestFrameReadWrite(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{1, 2, 3}, {}, bytes.Repeat([]byte{9}, 70000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	var scratch []byte
	for i, want := range payloads {
		got, err := ReadFrame(&buf, scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: %d bytes, want %d", i, len(got), len(want))
		}
		scratch = got[:0]
	}
	if _, err := ReadFrame(&buf, scratch); err != io.EOF {
		t.Fatalf("clean end of stream: %v, want io.EOF", err)
	}
	// A partial body is an unexpected EOF, not a clean end.
	buf.Reset()
	WriteFrame(&buf, []byte{1, 2, 3, 4})
	buf.Truncate(buf.Len() - 2)
	if _, err := ReadFrame(&buf, nil); err != io.ErrUnexpectedEOF {
		t.Fatalf("partial body: %v, want io.ErrUnexpectedEOF", err)
	}
	// An oversized length prefix is rejected before allocation.
	buf.Reset()
	hdr := binary.LittleEndian.AppendUint32(nil, maxFrameLen+1)
	buf.Write(hdr)
	if _, err := ReadFrame(&buf, nil); !errors.Is(err, ErrFrame) {
		t.Fatalf("oversized frame: %v, want ErrFrame", err)
	}
}

// TestAppendIngestRefusesWhatAFrameCannotCarry: a string longer than a
// str16 or an attribute count past a u16 is refused with an error naming
// the event's time and the field, never cut or wrapped.
func TestAppendIngestRefusesWhatAFrameCannotCarry(t *testing.T) {
	long := strings.Repeat("x", math.MaxUint16+1)
	many := func(e *cogra.Event, num bool) *cogra.Event {
		for i := range math.MaxUint16 + 1 {
			if num {
				e.WithNum(strconv.Itoa(i), 1)
			} else {
				e.WithSym(strconv.Itoa(i), "v")
			}
		}
		return e
	}
	for _, c := range []struct {
		want string
		e    *cogra.Event
	}{
		{"a type string", cogra.NewEvent(long, 42)},
		{"a sym string", cogra.NewEvent("A", 42).WithSym(long, "v")},
		{"a sym string", cogra.NewEvent("A", 42).WithSym("k", long)},
		{"a num string", cogra.NewEvent("A", 42).WithNum(long, 1)},
		{"65536 sym", many(cogra.NewEvent("A", 42), false)},
		{"0 sym and 65536 num", many(cogra.NewEvent("A", 42), true)},
	} {
		_, err := AppendIngest(nil, "t", append(codecStream(), c.e))
		if err == nil || !strings.Contains(err.Error(), "time 42: "+c.want) {
			t.Errorf("err = %v, want one naming time 42 and %s", err, c.want)
		}
	}
	// The longest string a str16 carries still round-trips.
	fits := cogra.NewEvent("A", 42).WithSym("k", long[1:])
	payload, err := AppendIngest(nil, "t", []*cogra.Event{fits})
	if err != nil {
		t.Fatal(err)
	}
	if _, got, err := DecodeIngest(payload); err != nil || got[0].Sym["k"] != long[1:] {
		t.Fatalf("a 65,535-byte value did not round-trip: %v", err)
	}
}

// internHeld is the cost model's estimate of what d's tables hold, both
// generations of all five.
func internHeld(d *Decoder) int {
	return tableHeld(&d.strs) + tableHeld(&d.frameSym) + tableHeld(&d.frameNum) +
		tableHeld(&d.jsonSym) + tableHeld(&d.jsonNum)
}

func tableHeld[V any](t *internTable[V]) int {
	n := 0
	for k, v := range t.young {
		n += internCost(k, v)
	}
	for k, e := range t.old {
		n += internCost(k, e.val)
	}
	return n
}

// maxHeld bounds internHeld: two generations, each past the budget by
// at most the entry that made it swap.
const maxHeld = 2 * (internBudget + 2*maxInternKey + internMapBytes + internSlotBytes*(1+maxInternKey))

// TestFrameInternTablesBounded: a connection's tables live as long as
// the connection, so what its Decoder retains stays under two
// generations of the budget however many distinct strings and sections
// its frames carry — here 100,000 distinct ones, then strings and
// sections too long to intern at all.
func TestFrameInternTablesBounded(t *testing.T) {
	base := liveHeap()
	d := new(Decoder)
	decode := func(events []*cogra.Event) {
		payload, err := AppendIngest(nil, "t", events)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := d.DecodeIngest(payload); err != nil {
			t.Fatal(err)
		}
	}
	events := make([]*cogra.Event, 1000)
	for frame := range 100 {
		for i := range events {
			id := int64(frame*1000 + i)
			events[i] = cogra.NewEvent(fmt.Sprintf("T%d", id), id).
				WithSym("id", fmt.Sprintf("event-%d", id)).WithNum(fmt.Sprintf("x%d", id), float64(id))
		}
		decode(events)
		if held := internHeld(d); held > maxHeld {
			t.Fatalf("frame %d: the tables hold an estimated %d bytes, over %d", frame, held, maxHeld)
		}
	}
	for _, c := range "abcd" {
		long := strings.Repeat(string(c), 60<<10)
		decode([]*cogra.Event{cogra.NewEvent(long, 1).WithSym("k", long).WithNum(long, 1)})
	}
	held := liveHeap() - base
	if held > 2*internBudget {
		t.Errorf("the decoder retains %d bytes, over two %d-byte generations", held, internBudget)
	}
	t.Logf("the decoder retains %d bytes", held)
	runtime.KeepAlive(d)
}

// driftFrame is frame f of a key space: n events whose sym sections take
// width values that belong to this key space alone, f*n onwards, and
// whose num sections repeat across all of them.
func driftFrame(t *testing.T, space, f, n, width int) []byte {
	events := make([]*cogra.Event, n)
	for i := range events {
		k := (f*n + i) % width
		events[i] = cogra.NewEvent("Drift", int64(f*n+i)).
			WithSym("key", fmt.Sprintf("s%d-%d", space, k)).WithNum("v", float64(k%8))
	}
	payload, err := AppendIngest(nil, "t", events)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestFrameInternFollowsDrift: a connection whose key space moves on
// every few frames keeps its tables at what recent frames used. The
// estimate plateaus under two generations, and once a key space is warm
// a frame decodes in as many allocations as one of the first key space
// did — long after 65,536 distinct sections have passed.
func TestFrameInternFollowsDrift(t *testing.T) {
	const (
		spaces = 20
		frames = 8 // per key space: 4 to meet every value, 4 to warm
		n      = 1000
		width  = 4 * n
	)
	var d Decoder
	var warm float64
	swaps := 0
	for space := range spaces {
		var frame []byte
		for f := range frames {
			frame = driftFrame(t, space, f, n, width)
			young := d.young
			if _, _, err := d.DecodeIngest(frame); err != nil {
				t.Fatal(err)
			}
			if d.young < young {
				swaps++
			}
			if held := internHeld(&d); held > maxHeld {
				t.Fatalf("key space %d, frame %d: the tables hold an estimated %d bytes, over %d", space, f, held, maxHeld)
			}
		}
		allocs := testing.AllocsPerRun(5, func() { d.DecodeIngest(frame) })
		if space == 0 {
			warm = allocs
		} else if allocs != warm {
			t.Fatalf("key space %d: a warm frame takes %v allocations, the first key space's took %v", space, allocs, warm)
		}
	}
	if swaps < 3 {
		t.Fatalf("%d swaps in %d key spaces; the drift does not reach the budget", swaps, spaces)
	}
}

// TestInternSwapsKeepEventsExact: across several swaps, on both syntaxes
// through one Decoder, every event decodes as a fresh Decoder decodes
// the same bytes — no swap hands out a stale map. Each frame meets
// sections it saw in earlier frames (hits in young and in old) and new
// ones.
func TestInternSwapsKeepEventsExact(t *testing.T) {
	var d Decoder
	swaps := 0
	for f := range 40 {
		events := make([]*cogra.Event, 1000)
		wire := make([]WireEvent, len(events))
		for i := range events {
			k := f*700 + i*37%1000
			events[i] = cogra.NewEvent(fmt.Sprintf("T%d", k%5), int64(f*1000+i)).
				WithSym("key", fmt.Sprintf("s%d", k)).WithSym("g", fmt.Sprintf("g%d", k%13)).
				WithNum("v", float64(k%50)).WithNum("w", float64(k))
			wire[i] = ToWireEvent(events[i])
		}
		frame, err := AppendIngest(nil, "t", events)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(map[string]any{"events": wire})
		if err != nil {
			t.Fatal(err)
		}
		young := d.young
		_, got, err := d.DecodeIngest(frame)
		if err != nil {
			t.Fatal(err)
		}
		_, want, _ := new(Decoder).DecodeIngest(frame)
		if diff := eventsDiff(got, want); diff != "" {
			t.Fatalf("frame %d: %s", f, diff)
		}
		fromJSON, err := d.DecodeJSONIngest(body)
		if err != nil {
			t.Fatal(err)
		}
		want, _ = new(Decoder).DecodeJSONIngest(body)
		if diff := eventsDiff(fromJSON, want); diff != "" {
			t.Fatalf("body %d: %s", f, diff)
		}
		if d.young < young {
			swaps++
		}
	}
	if swaps < 3 {
		t.Fatalf("%d swaps, want at least 3", swaps)
	}
}
