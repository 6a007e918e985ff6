package main

// Seeded input generation. A workload's input is a pure function of
// (workload, seed, lap size): the generators draw from a private
// splitmix64 stream, so the same seed gives byte-identical frames on
// every machine and Go version, and a different seed gives a different
// stream of the same shape.
//
// The generated stream is first held as compact pointer-free records
// and then encoded into the form the lap consumes. Encoded frames live
// in anonymous mmap memory, outside the Go heap: a megabyte-scale input
// on the heap would set the GC trigger (GOGC is relative to the live
// heap) and make the program under test collect far less often than it
// would in production.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"syscall"
	"time"
	"unsafe"

	cogra "repro"
	"repro/internal/server"
)

// rng is splitmix64.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// n draws from [0, k); k is far below 2^32, so the modulo bias is
// below one part in a billion.
func (r *rng) n(k uint64) uint64 { return r.next() % k }

// rec is one generated event. Its stream ID is its index in the
// time-ordered record slice plus one.
type rec struct {
	t     int64
	key   uint32 // opaque key id, named by stream.keyName
	v     uint16 // numeric attribute, an integer so float sums are exact
	typ   uint8  // index into stream.types
	delay uint8  // arrival delay in ticks (jittered streams only)
}

// source is one tenant's event stream.
type source struct {
	tenant           string
	types            []string
	symAttr, numAttr string
	keyName          func(key uint32) string
	recs             []rec    // time order
	order            []uint32 // arrival order as indexes into recs; nil: time order

	// Attribute maps are shared between events with equal values, the
	// way server.Decoder shares them on a live connection.
	sym map[uint32]map[string]string
	num map[uint16]map[string]float64
}

// at returns the index into recs of the i-th arriving event.
func (s *source) at(i int) int {
	if s.order == nil {
		return i
	}
	return int(s.order[i])
}

// arrivals decodes the events arriving at positions [lo, hi).
func (s *source) arrivals(lo, hi int) []*cogra.Event { return s.materialize(lo, hi, s.at) }

// sorted decodes the events at positions [lo, hi) of the time order.
func (s *source) sorted(lo, hi int) []*cogra.Event {
	return s.materialize(lo, hi, func(i int) int { return i })
}

// materialize decodes positions [lo, hi) into fresh events; at maps a
// position to its record.
func (s *source) materialize(lo, hi int, at func(int) int) []*cogra.Event {
	if s.sym == nil {
		s.sym = map[uint32]map[string]string{}
		s.num = map[uint16]map[string]float64{}
	}
	store := make([]cogra.Event, hi-lo)
	out := make([]*cogra.Event, hi-lo)
	for i := lo; i < hi; i++ {
		ri := at(i)
		r := &s.recs[ri]
		sym, ok := s.sym[r.key]
		if !ok {
			sym = map[string]string{s.symAttr: s.keyName(r.key)}
			s.sym[r.key] = sym
		}
		num, ok := s.num[r.v]
		if !ok {
			num = map[string]float64{s.numAttr: float64(r.v)}
			s.num[r.v] = num
		}
		e := &store[i-lo]
		e.Time, e.ID, e.Type, e.Sym, e.Num = r.t, int64(ri+1), s.types[r.typ], sym, num
		out[i-lo] = e
	}
	return out
}

// frame is one pre-encoded ingest batch.
type frame struct {
	data   []byte // wire payload (server.AppendIngest) or JSON request body
	stream int    // index into input.streams
	http   bool   // data is a JSON body for POST /v1/{tenant}/events
	n      int    // events inside
}

// input is everything a workload's laps consume.
type input struct {
	wl      *workload
	streams []*source
	frames  []frame        // arrival order, tenants interleaved round-robin
	events  []*cogra.Event // pre-decoded lap (workloads that push events, not bytes)
	queries []*cogra.Query // the per-tenant portfolio, parsed once
	nEvents int
	bytes   int      // size of the input as held for the laps
	ref     [][]qsum // expected results, [stream][query]
	buildS  float64
}

// arena hands out anonymous mmap memory. It is never unmapped: inputs
// live as long as the process.
type arena struct{ free []byte }

const arenaChunk = 16 << 20

func (a *arena) alloc(n int) []byte {
	if n > len(a.free) {
		m, err := syscall.Mmap(-1, 0, max(arenaChunk, n),
			syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			panic(fmt.Sprintf("cograperf: mmap input arena: %v", err))
		}
		a.free = m
	}
	out := a.free[:n:n]
	a.free = a.free[n:]
	return out
}

func (a *arena) put(b []byte) []byte {
	out := a.alloc(len(b))
	copy(out, b)
	return out
}

// offHeap is the arena every generated stream and frame lives in.
var offHeap arena

// newRecs returns n zeroed records outside the Go heap (they hold no
// pointers).
func newRecs(n int) []rec {
	const size = int(unsafe.Sizeof(rec{}))
	mem := offHeap.alloc(n*size + 8)
	mem = mem[(8-int(uintptr(unsafe.Pointer(&mem[0]))%8))%8:]
	return unsafe.Slice((*rec)(unsafe.Pointer(&mem[0])), n)
}

// generate builds the input of wl for seed with lapEvents events per
// lap (the workload's own lap size outside tests).
func generate(wl *workload, seed uint64, lapEvents int) (*input, error) {
	t0 := time.Now()
	in := &input{wl: wl, nEvents: lapEvents}
	for _, text := range wl.queries {
		q, err := cogra.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", wl.name, err)
		}
		in.queries = append(in.queries, q)
	}
	in.streams = wl.build(seed, lapEvents)
	for _, s := range in.streams {
		ref, err := reference(s, in.queries)
		if err != nil {
			return nil, fmt.Errorf("workload %s: reference: %w", wl.name, err)
		}
		in.ref = append(in.ref, ref)
	}
	if wl.predecoded {
		s := in.streams[0]
		in.events = s.arrivals(0, len(s.recs))
		in.bytes = len(in.events) * (8 + 48) // pointer + event.Event
	} else if err := in.encode(); err != nil {
		return nil, err
	}
	for _, s := range in.streams {
		s.sym, s.num = nil, nil // rebuilt on demand; not worth keeping on the heap
	}
	in.buildS = time.Since(t0).Seconds()
	return in, nil
}

// encode cuts every stream into wl.batch-sized frames and interleaves
// the tenants round-robin. The first tenant of a served workload
// speaks JSON, the others the binary wire format.
func (in *input) encode() error {
	batch := in.wl.batch
	var buf []byte
	for lo := 0; ; lo += batch {
		wrote := false
		for si, s := range in.streams {
			if lo >= len(s.recs) {
				continue
			}
			hi := min(lo+batch, len(s.recs))
			events := s.arrivals(lo, hi)
			f := frame{stream: si, n: hi - lo, http: in.wl.kind == served && si == 0}
			if f.http {
				wire := make([]server.WireEvent, len(events))
				for i, e := range events {
					wire[i] = server.ToWireEvent(e)
				}
				body, err := json.Marshal(map[string]any{"events": wire})
				if err != nil {
					return err
				}
				buf = body
			} else {
				var err error
				if buf, err = server.AppendIngest(buf[:0], s.tenant, events); err != nil {
					return err
				}
			}
			f.data = offHeap.put(buf)
			in.bytes += len(f.data)
			in.frames = append(in.frames, f)
			wrote = true
		}
		if !wrote {
			return nil
		}
	}
}

// expected is the number of results one lap must produce.
func (in *input) expected() int64 {
	var n int64
	for _, ref := range in.ref {
		for _, q := range ref {
			n += q.n
		}
	}
	return n
}

// digest fingerprints the generated input: the bytes the laps will
// read, in order, plus the expected results.
func (in *input) digest() uint64 {
	h := fnv.New64a()
	var w [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		h.Write(w[:])
	}
	for _, f := range in.frames {
		put(uint64(f.stream))
		h.Write(f.data)
	}
	for _, e := range in.events {
		put(uint64(e.Time))
		put(uint64(e.ID))
		h.Write([]byte(e.Type))
		h.Write([]byte(e.Sym[in.streams[0].symAttr]))
		put(uint64(e.Num[in.streams[0].numAttr]))
	}
	for _, ref := range in.ref {
		for _, q := range ref {
			put(uint64(q.n))
			put(q.h)
		}
	}
	return h.Sum64()
}

// shape summarises the properties of a stream the workloads are
// defined by; two seeds of one workload must agree on it.
type shape struct {
	events  int
	typeMix []float64   // share of events per type
	runMean float64     // mean length of same-type, same-tick runs
	runMix  [4]float64  // share of runs per length quartile of [32, 256]
	jitter  [17]float64 // share of events per arrival delay
	inverts float64     // share of adjacent arrivals that go back in time
}

func (in *input) shape() shape {
	var sh shape
	var runs, runEvents, inverts int
	var runBuckets [4]int
	for _, s := range in.streams {
		sh.events += len(s.recs)
		if sh.typeMix == nil {
			sh.typeMix = make([]float64, len(s.types))
		}
		runLen := 0
		for i := range s.recs {
			r := &s.recs[i]
			sh.typeMix[r.typ]++
			sh.jitter[r.delay]++
			if i > 0 && (s.recs[i-1].t != r.t || s.recs[i-1].typ != r.typ) {
				runs, runEvents = runs+1, runEvents+runLen
				runBuckets[min(3, max(0, runLen-32)*4/225)]++
				runLen = 0
			}
			runLen++
			if i > 0 && s.recs[s.at(i)].t < s.recs[s.at(i-1)].t {
				inverts++
			}
		}
	}
	for i := range sh.typeMix {
		sh.typeMix[i] /= float64(sh.events)
	}
	for i := range sh.jitter {
		sh.jitter[i] /= float64(sh.events)
	}
	if runs > 0 {
		sh.runMean = float64(runEvents) / float64(runs)
		for i, n := range runBuckets {
			sh.runMix[i] = float64(n) / float64(runs)
		}
	}
	sh.inverts = float64(inverts) / float64(sh.events)
	return sh
}

// The stream builders. Every one returns streams whose records are in
// non-decreasing time order.
//
// The fleet and burst streams are dealt, not drawn: each 64-tick block
// holds the same multiset of (type, key) pairs or run lengths whatever
// the seed, and the seed decides their order inside the block, the
// numeric values and the arrival jitter. Windows are whole blocks, so
// the state a window holds — and with it the allocation counts and the
// logical peak memory — depends on the seed only through that order.
// Independent draws would give every seed its own luckiest window, and
// a peak is a maximum: it would differ by percents between seeds.

const (
	fleetTypes     = 8
	hotKeys        = 64
	localKeys      = 512
	eventsPerTick  = 4
	blockTicks     = 64
	blockEvents    = blockTicks * eventsPerTick
	hotPerBlock    = 24 // of the 32 events each type has in a block
	maxJitterTicks = 16
	localKeyBit    = 1 << 31
)

var fleetTypeNames = []string{"S0", "S1", "S2", "S3", "S4", "S5", "S6", "S7"}

// fleetKeyName names the fleet streams' keys: hot keys "k<n>" occur on
// every type, type-local keys "s<type>-<n>" on one type only, so no
// trend ever completes on them.
func fleetKeyName(key uint32) string {
	if key&localKeyBit == 0 {
		return fmt.Sprintf("k%d", key)
	}
	return fmt.Sprintf("s%d-%d", key>>24&0x7f, key&0xffffff)
}

// shuffle is Fisher-Yates.
func shuffle[T any](r *rng, v []T) {
	for i := len(v) - 1; i > 0; i-- {
		j := r.n(uint64(i + 1))
		v[i], v[j] = v[j], v[i]
	}
}

// buildFleet is ROADMAP's headline stream: 8 types mixed uniformly, 4
// events per tick, 3/4 hot keys (64) and 1/4 type-local keys (512 per
// type). Per block and type the hot keys are the next 24 of the 64 in
// rotation and the local keys the next 8 of the 512, so every four
// blocks hold every hot key. With drift the key space slides forward 8
// hot and 64 local keys per 256 ticks, and with jitter every event
// gets an arrival delay of 0..16 ticks.
func buildFleet(seed uint64, n int, drift, jitter bool) []*source {
	r := rng{s: seed}
	s := &source{types: fleetTypeNames, symAttr: "key", numAttr: "v", keyName: fleetKeyName}
	s.recs = newRecs(n)
	var deck [blockEvents]rec
	for b := 0; b*blockEvents < n; b++ {
		var epoch uint32
		if drift {
			epoch = uint32(b / 4)
		}
		deal := deck[:0]
		for typ := uint32(0); typ < fleetTypes; typ++ {
			for j := 0; j < blockEvents/fleetTypes; j++ {
				key := epoch*8 + uint32((hotPerBlock*b+j)%hotKeys)
				if j >= hotPerBlock {
					key = localKeyBit | typ<<24 | (epoch*64 + uint32((8*b+j)%localKeys))
				}
				deal = append(deal, rec{typ: uint8(typ), key: key})
			}
		}
		shuffle(&r, deal)
		for i, d := range deal {
			at := b*blockEvents + i
			if at >= n {
				break
			}
			d.t, d.v = int64(at/eventsPerTick), uint16(r.n(1000))
			if jitter {
				d.delay = uint8(r.n(maxJitterTicks + 1))
			}
			s.recs[at] = d
		}
	}
	if jitter {
		s.order = arrivalOrder(s.recs)
	}
	return []*source{s}
}

// arrivalOrder sorts events stably by time plus delay (a counting
// sort: both are small integers). An event then arrives after at most
// events up to maxJitterTicks ahead of it, so a slack of twice that is
// never exceeded.
func arrivalOrder(recs []rec) []uint32 {
	last := recs[len(recs)-1].t + maxJitterTicks
	starts := make([]uint32, last+2)
	for i := range recs {
		starts[recs[i].t+int64(recs[i].delay)+1]++
	}
	for i := 1; i < len(starts); i++ {
		starts[i] += starts[i-1]
	}
	order := make([]uint32, len(recs))
	for i := range recs {
		a := recs[i].t + int64(recs[i].delay)
		order[starts[a]] = uint32(i)
		starts[a]++
	}
	return order
}

// burstLengths are the run lengths every type is dealt once per block:
// mean 144, and 8 types x 1152 events make a block 9 ingest batches of
// 1024, so a window (whole blocks) closes on the first event of a
// batch, as it does in the fleet streams.
var burstLengths = [8]int{46, 74, 102, 130, 158, 186, 214, 242}

// buildBursts emits runs of 46..242 events that share one type and one
// tick; types rotate, 64 keys. Within a run the numeric values are an
// even grid over [0, 1000) in shuffled order, so a local predicate on
// them keeps the same number of events of every run of one length.
func buildBursts(seed uint64, n int) []*source {
	r := rng{s: seed}
	s := &source{types: fleetTypeNames, symAttr: "key", numAttr: "v", keyName: fleetKeyName}
	s.recs = newRecs(n)[:0]
	var decks [fleetTypes][8]int
	grid := make([]int, 0, 256)
	for run := 0; len(s.recs) < n; run++ {
		if run%blockTicks == 0 {
			for t := range decks {
				decks[t] = burstLengths
				shuffle(&r, decks[t][:])
			}
		}
		typ := run % fleetTypes
		length := decks[typ][run%blockTicks/fleetTypes]
		grid = grid[:0]
		for j := 0; j < length; j++ {
			grid = append(grid, j)
		}
		shuffle(&r, grid)
		for j := 0; j < length && len(s.recs) < n; j++ {
			s.recs = append(s.recs, rec{t: int64(run), typ: uint8(typ),
				key: uint32(r.n(hotKeys)), v: uint16(grid[j] * 1000 / length)})
		}
	}
	return []*source{s}
}

var tenantTypeNames = []string{"A", "B", "C"}

// buildTenants gives each of the 8 tenants its own stream of n/8
// events: three types, 16 keys, 4 events per tick.
func buildTenants(seed uint64, n int) []*source {
	const tenants = 8
	out := make([]*source, tenants)
	for ti := range out {
		r := rng{s: seed + uint64(ti)*0x632be59bd9b4e019}
		s := &source{tenant: fmt.Sprintf("tenant-%d", ti), types: tenantTypeNames, symAttr: "k", numAttr: "x",
			keyName: func(key uint32) string { return fmt.Sprintf("g%d", key) }}
		s.recs = newRecs(n / tenants)
		for i := range s.recs {
			s.recs[i] = rec{t: int64(i / eventsPerTick), typ: uint8(r.n(3)), key: uint32(r.n(16)), v: uint16(r.n(100))}
		}
		out[ti] = s
	}
	return out
}
