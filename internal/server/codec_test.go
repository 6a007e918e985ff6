package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
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
