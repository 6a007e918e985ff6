package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	cogra "repro"
)

// The reference for DecodeJSONIngest is the encoding/json path the HTTP
// route decoded with before, kept verbatim: ingestRequest, the strict
// decodeBody and WireEvent.Event.

// ingestRequest is the batch-ingest body.
type ingestRequest struct {
	Events []WireEvent `json:"events"`
}

// Event converts the wire form into an engine event.
func (w *WireEvent) Event() *cogra.Event {
	e := cogra.NewEvent(w.Type, w.Time)
	e.ID = w.ID
	for k, v := range w.Sym {
		e.WithSym(k, v)
	}
	for k, v := range w.Num {
		e.WithNum(k, v)
	}
	return e
}

// referenceDecode decodes body the old way. trailing reports
// non-whitespace after the first value, which the old path ignored and
// DecodeJSONIngest rejects — the one difference between the two.
func referenceDecode(body []byte) (events []*cogra.Event, trailing bool, err error) {
	src := bytes.NewReader(body)
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	var req ingestRequest
	if err := dec.Decode(&req); err != nil {
		return nil, false, err
	}
	rest, _ := io.ReadAll(io.MultiReader(dec.Buffered(), src))
	events = make([]*cogra.Event, len(req.Events))
	for i := range req.Events {
		events[i] = req.Events[i].Event()
	}
	return events, len(bytes.TrimLeft(rest, " \t\r\n")) > 0, nil
}

// eventsDiff describes the first difference between two decoded
// batches: time, type, id and attribute contents (floats bit for bit;
// a nil map equals an empty one), or "" when they agree.
func eventsDiff(got, want []*cogra.Event) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d events, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Time != w.Time || g.Type != w.Type || g.ID != w.ID {
			return fmt.Sprintf("event %d: (time %d, type %q, id %d), want (%d, %q, %d)", i, g.Time, g.Type, g.ID, w.Time, w.Type, w.ID)
		}
		if len(g.Sym) != len(w.Sym) || len(g.Num) != len(w.Num) {
			return fmt.Sprintf("event %d: sym %v num %v, want sym %v num %v", i, g.Sym, g.Num, w.Sym, w.Num)
		}
		for k, v := range w.Sym {
			if gv, ok := g.Sym[k]; !ok || gv != v {
				return fmt.Sprintf("event %d: sym %q = %q, want %q", i, k, gv, v)
			}
		}
		for k, v := range w.Num {
			if gv, ok := g.Num[k]; !ok || math.Float64bits(gv) != math.Float64bits(v) {
				return fmt.Sprintf("event %d: num %q = %v, want %v", i, k, gv, v)
			}
		}
	}
	return ""
}

// jsonSeeds are bodies at the edges of the accepted language.
var jsonSeeds = []string{
	`{"events":[{"time":1,"type":"A","id":2,"sym":{"k":"g"},"num":{"x":1.5}}]}`,
	`{"events":[]}`, `{}`, `null`, ` null `, ``, `   `, `[]`, `"events"`, `1`, `true`,
	// escapes, surrogate pairs (whole, lone, reversed), non-ASCII, invalid UTF-8
	`{"events":[{"type":"\"\\\/\b\f\n\r\tAé ","sym":{"k":"😀"}}]}`,
	`{"events":[{"type":"\ud83d","sym":{"k":"\ude00\ud83dA","j":"\ud83d😀"}}]}`,
	`{"events":[{"type":"Ä€😀","sym":{"ключ":"значение"}}]}`,
	"{\"events\":[{\"type\":\"\xff\xfe\",\"sym\":{\"\xc3\":\"\xed\xa0\x80\",\"k\":\"\xef\xbf\xbd\"}}]}",
	`{"events":[{"type":"\x"}]}`, `{"events":[{"type":"\u12"}]}`, "{\"events\":[{\"type\":\"a\tb\"}]}",
	`{"events":[{"type":"unterminated}]}`,
	// case-folded and repeated fields
	`{"EVENTS":[{"TIME":3,"Type":"A","iD":4,"SYM":{"a":"b"},"nUm":{"x":2}}]}`,
	`{"events":[{"ſym":{"a":"b"},"num":{"x":1},"type":"K"}]}`,
	`{"events":[{"sym":{"a":"b"},"sym":{"c":"d","a":"e"},"num":{"x":1},"num":{},"time":1,"time":2}]}`,
	`{"events":[{"sym":{"a":"b","a":"c"}}]}`,
	`{"events":[{"time":1,"sym":{"a":"b"}},{"time":2},{"time":3}],"events":[{"type":"X"}],"events":[{"id":9},{"id":8}]}`,
	`{"events":[{"time":1}],"events":null,"events":[{"id":2}]}`,
	`{"events":[{"time":1}],"events":[],"events":[{"id":2}]}`,
	`{"events":[null,{"time":1},null]}`,
	// nulls
	`{"events":[{"time":null,"type":null,"id":null,"sym":null,"num":null}]}`,
	`{"events":[{"sym":{"a":null},"num":{"x":null}}]}`,
	`{"events":[{"sym":{"a":"b"},"sym":null}]}`,
	`{"events":null}`,
	// int64 edges and number forms
	`{"events":[{"time":9223372036854775807,"id":-9223372036854775808}]}`,
	`{"events":[{"time":9223372036854775808}]}`, `{"events":[{"id":-9223372036854775809}]}`,
	`{"events":[{"time":1e3}]}`, `{"events":[{"time":1.0}]}`, `{"events":[{"time":-0}]}`,
	`{"events":[{"time":01}]}`, `{"events":[{"time":-}]}`, `{"events":[{"time":"1"}]}`,
	`{"events":[{"num":{"a":1e308,"b":-0,"c":5e-324,"d":1E+2,"e":0.5e-3}}]}`,
	`{"events":[{"num":{"a":1e309}}]}`, `{"events":[{"num":{"a":.5}}]}`, `{"events":[{"num":{"a":1.}}]}`,
	// wrong types and unknown fields
	`{"events":[{"type":1}]}`, `{"events":[{"sym":{"a":1}}]}`, `{"events":[{"num":{"a":"1"}}]}`,
	`{"events":[{"sym":["a"]}]}`, `{"events":[1]}`, `{"events":{}}`, `{"events":[{"time":true}]}`,
	`{"events":[{"extra":1}]}`, `{"extra":[]}`, `{"events":[],"x":{"deep":[[[[]]]]}}`,
	// trailing bytes and broken syntax
	`{"events":[]} {"events":[]}`, `{"events":[]}x`, `{"events":[]}` + "\x00", "nullx", `{"events":[]} `,
	`{"events":[],}`, `{"events":[{},]}`, `{,"events":[]}`, `{"events" []}`, `{"events":[}`, `{"events":[`,
}

// genBatch derives a batch from fuzz bytes: types, keys and symbols are
// valid-UTF-8 pieces of them (JSON cannot carry invalid UTF-8 through,
// frames can), the numbers finite (JSON has no NaN or Inf).
func genBatch(data []byte) []*cogra.Event {
	h := fnv.New64a()
	h.Write(data)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	piece := func() string {
		if len(data) == 0 {
			return "k"
		}
		i := rng.Intn(len(data))
		return strings.ToValidUTF8(string(data[i:min(len(data), i+rng.Intn(12))]), "�")
	}
	ints := []int64{0, 1, -1, math.MaxInt64, math.MinInt64}
	floats := []float64{0, math.Copysign(0, -1), 1.5, -2.25e-300, math.MaxFloat64, math.SmallestNonzeroFloat64, 1e21}
	events := make([]*cogra.Event, rng.Intn(8))
	for i := range events {
		e := cogra.NewEvent(piece(), ints[rng.Intn(len(ints))]^rng.Int63n(1<<20))
		e.ID = ints[rng.Intn(len(ints))]
		for j := rng.Intn(4); j > 0; j-- {
			e.WithSym(piece(), piece())
		}
		for j := rng.Intn(4); j > 0; j-- {
			e.WithNum(piece(), floats[rng.Intn(len(floats))]*float64(1-2*rng.Intn(2)))
		}
		events[i] = e
	}
	return events
}

// FuzzJSONIngest holds DecodeJSONIngest to the encoding/json path it
// replaces, on a cold and then a warm decoder: both reject, or both
// accept with equal events — except that trailing bytes are rejected.
// A batch generated from the same bytes must also decode from its JSON
// body to the events its binary frame decodes to.
func FuzzJSONIngest(f *testing.F) {
	for _, s := range jsonSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, trailing, werr := referenceDecode(body)
		var d Decoder
		for pass := range 2 {
			got, err := d.DecodeJSONIngest(body)
			switch {
			case werr != nil && err == nil:
				t.Fatalf("pass %d: accepted a body the reference rejects (%v)", pass, werr)
			case werr == nil && err == nil && trailing:
				t.Fatalf("pass %d: accepted trailing bytes", pass)
			case werr == nil && err != nil && !trailing:
				t.Fatalf("pass %d: rejected a body the reference accepts: %v", pass, err)
			case err == nil:
				if diff := eventsDiff(got, want); diff != "" {
					t.Fatalf("pass %d: %s", pass, diff)
				}
			}
		}

		batch := genBatch(body)
		wire := make([]WireEvent, len(batch))
		for i, e := range batch {
			wire[i] = ToWireEvent(e)
		}
		text, err := json.Marshal(map[string]any{"events": wire})
		if err != nil {
			t.Fatal(err)
		}
		frame, err := AppendIngest(nil, "t", batch)
		if err != nil {
			t.Fatal(err)
		}
		_, fromFrame, err := d.DecodeIngest(frame)
		if err != nil {
			t.Fatal(err)
		}
		fromJSON, err := d.DecodeJSONIngest(text)
		if err != nil {
			t.Fatalf("generated body %s: %v", text, err)
		}
		if diff := eventsDiff(fromJSON, fromFrame); diff != "" {
			t.Fatalf("generated body %s: JSON vs frame: %s", text, diff)
		}
	})
}

// TestJSONIngestRepeatsMergeInPlace: a repeated sym field copies a
// shared map once, then merges into the copy, so a body of k repeats
// decodes in linear time — not in k copies of a growing map.
func TestJSONIngestRepeatsMergeInPlace(t *testing.T) {
	const k = 1000
	var b strings.Builder
	b.WriteString(`{"events":[{"time":1`)
	for i := range k {
		fmt.Fprintf(&b, `,"sym":{"k%d":"v"}`, i)
	}
	b.WriteString(`}]}`)
	body := []byte(b.String())
	var d Decoder
	events, err := d.DecodeJSONIngest(body)
	if err != nil || len(events) != 1 || len(events[0].Sym) != k {
		t.Fatalf("decoded %d events: %v", len(events), err)
	}
	if got := testing.AllocsPerRun(5, func() { d.DecodeJSONIngest(body) }); got > k/10 {
		t.Errorf("%d repeated sym fields: %v allocations, want at most %d", k, got, k/10)
	}
}

// jsonBody is a canonical n-event body whose sym and num sections take
// nSym and nNum distinct values; distinct makes every section unique.
func jsonBody(n, nSym, nNum int, distinct bool) []byte {
	wire := make([]WireEvent, n)
	for i := range wire {
		wire[i] = WireEvent{
			Time: int64(1000 + i), Type: [3]string{"A", "B", "C"}[i%3], ID: int64(i + 1),
			Sym: map[string]string{"k": fmt.Sprintf("g%d", i%nSym)},
			Num: map[string]float64{"x": float64(i % nNum)},
		}
		if distinct {
			wire[i].Sym["id"] = fmt.Sprintf("ev-%d", rand.Int63())
			wire[i].Num["x"] = rand.Float64()
		}
	}
	body, err := json.Marshal(map[string]any{"events": wire})
	if err != nil {
		panic(err)
	}
	return body
}

// TestJSONIngestAllocs pins the JSON path's allocations: a warm
// per-tenant decoder reading a body of 16 distinct sym and 100 distinct
// num sections allocates the body buffer, the pointer slice and the
// event arena, which grows by append — a few times per body, never per
// event: 500 events take 12 allocations, 5,000 take 19.
func TestJSONIngestAllocs(t *testing.T) {
	for _, c := range []struct{ events, allocs int }{{500, 12}, {5000, 19}} {
		body := jsonBody(c.events, 16, 100, false)
		var d Decoder
		decode := func() {
			events, err := d.DecodeJSONIngest(bytes.Clone(body))
			if err != nil || len(events) != c.events {
				t.Fatalf("decoded %d events: %v", len(events), err)
			}
		}
		decode()
		if got := testing.AllocsPerRun(20, decode); got > float64(c.allocs) {
			t.Errorf("warm decode of a %d-event body: %v allocations, want at most %d", c.events, got, c.allocs)
		}
	}
}

// TestJSONIngestRejectsWithoutAllocating: a body that breaks off early
// is rejected having allocated in proportion to what came before the
// break, not to what follows it.
func TestJSONIngestRejectsWithoutAllocating(t *testing.T) {
	body := []byte(`{"events":[x` + strings.Repeat("{}", 2<<20) + `]}`)
	var d Decoder
	var err error
	if got := allocatedBytes(func() { _, err = d.DecodeJSONIngest(body) }); got > 4<<10 {
		t.Errorf("a %d-byte body broken at byte 11 allocated %d bytes", len(body), got)
	}
	if err == nil || !strings.Contains(err.Error(), "offset 11") {
		t.Fatalf("err = %v, want a rejection at offset 11", err)
	}
}

// liveHeap is the heap a full collection leaves.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestJSONInternTablesBounded: a tenant's JSON tables live as long as
// the tenant, so what its Decoder retains stays under two generations of
// the byte budget however many distinct strings and sections its bodies
// carry — here 100,000 distinct ones, then sections too long to intern
// at all.
func TestJSONInternTablesBounded(t *testing.T) {
	base := liveHeap()
	d := new(Decoder)
	var b bytes.Buffer
	for body := range 100 {
		b.Reset()
		b.WriteString(`{"events":[`)
		for i := range 1000 {
			id := body*1000 + i
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"time":%d,"type":"T%d","sym":{"id":"event-%d"},"num":{"x%d":%d}}`, id, id, id, id, id)
		}
		b.WriteString(`]}`)
		if _, err := d.DecodeJSONIngest(b.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range "abcd" {
		long := []byte(`{"events":[{"type":"` + strings.Repeat(string(c), 1<<20) +
			`","sym":{"k":"` + strings.Repeat(string(c), 1<<20) + `"}}]}`)
		if _, err := d.DecodeJSONIngest(long); err != nil {
			t.Fatal(err)
		}
	}
	b = bytes.Buffer{}
	held := liveHeap() - base
	if held > 2*internBudget {
		t.Errorf("the decoder retains %d bytes, over two %d-byte generations", held, internBudget)
	}
	t.Logf("the decoder retains %d bytes", held)
	runtime.KeepAlive(d)
}

// TestJSONInternSkipsLongEntries: a string or section longer than
// maxInternKey decodes uninterned, so one body of huge values neither
// takes the budget nor drops what the tenant's regular bodies interned.
func TestJSONInternSkipsLongEntries(t *testing.T) {
	var d Decoder
	if _, err := d.DecodeJSONIngest(jsonBody(500, 16, 100, false)); err != nil {
		t.Fatal(err)
	}
	held, syms, nums := d.young, len(d.jsonSym.young), len(d.jsonNum.young)
	v := strings.Repeat("v", internBudget)
	huge := `{"events":[{"type":"` + v + `","sym":{"k":"` + v + `"},"num":{"` + v + `":1}}]}`
	if _, err := d.DecodeJSONIngest([]byte(huge)); err != nil {
		t.Fatal(err)
	}
	if d.young != held || len(d.jsonSym.young) != syms || len(d.jsonNum.young) != nums {
		t.Errorf("a body of huge values moved the tables from (%d bytes, %d sym, %d num) to (%d, %d, %d)",
			held, syms, nums, d.young, len(d.jsonSym.young), len(d.jsonNum.young))
	}
}

// BenchmarkJSONIngest compares DecodeJSONIngest, on a warm decoder, with
// the encoding/json path it replaced, on 500-event bodies whose sections
// repeat (16 sym and 100 num values) and on bodies where every section
// is new — the interning miss path throughout.
func BenchmarkJSONIngest(b *testing.B) {
	for _, distinct := range []bool{false, true} {
		name := "repeating"
		if distinct {
			name = "distinct"
		}
		bodies := make([][]byte, 16)
		for i := range bodies {
			bodies[i] = jsonBody(500, 16, 100, distinct)
		}
		b.Run(name+"/tokenizer", func(b *testing.B) {
			var d Decoder
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := d.DecodeJSONIngest(bodies[i%len(bodies)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(500*b.N), "ns/event")
		})
		b.Run(name+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := referenceDecode(bodies[i%len(bodies)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(500*b.N), "ns/event")
		})
	}
}
