package core

import (
	"repro/internal/predicate"
)

// bindings manages the alias-scoped equivalence slots of a plan. A
// binding assigns a value to each slot, accumulated as a trend grows:
// the first event matched under a slot's alias binds the slot, and
// every later event of that alias must agree. Bindings key the
// per-type and per-event aggregate tables so that each equivalence
// group (the paper's "trend group", §7) is maintained separately.
//
// Slot values are interned to dense uint32 ids (0 = unbound) and a
// binding is identified by a bkey: for plans with at most two slots
// the two value ids packed into one uint64, otherwise the id of an
// interned value-id vector. combine and startKey are therefore
// allocation-free integer operations on the hot path; the string
// values are only rematerialised (appendDecoded) when a window closes.
//
// One bindings instance is shared per engine (it owns the intern
// tables), so keys are comparable across all sub-aggregators and
// windows of that engine. Engines are single-threaded, so the intern
// tables need no locking.
//
// # Epoch rotation (eviction)
//
// By default the tables grow monotonically with distinct slot values
// over the engine's lifetime. With eviction enabled (WithInternEviction)
// liveness is tied to window expiry: every intern is stamped with the
// epoch of the stream time it was last touched at (epoch = the
// watermark divided into Within-length frames, window.Spec.EpochOf),
// and when the watermark enters epoch E, entries last touched in epoch
// E-2 or earlier are reclaimed. The stamp discipline makes that safe:
// a value (or vector) id is only ever referenced by binding keys held
// in the per-window sub-aggregator tables of windows CONTAINING one of
// its touch times — extensions stay within a window's own
// sub-aggregator, and each assignment re-interns (touches) its values
// — and every window containing a time in epoch e has closed, emitted
// and decoded before the watermark reaches epoch e+2 (a window spans
// at most Within = one epoch length). Live ids therefore never move:
// reclaimed ids are pushed on a free list and recycled for future
// values, so the id space — and the accounted footprint — plateaus at
// the cardinality of roughly two epochs instead of ramping forever.
type bindings struct {
	nslots int
	acct   accountant
	bytes  int64 // live logical bytes of the intern tables

	// Value interning: vals[id] is the slot value; id 0 is unbound.
	valIDs map[string]uint32
	vals   []string

	// Vector interning for nslots > 2: vecs[key] is the value-id
	// vector of binding key; vecIDs maps the packed little-endian
	// bytes of a vector to its key. Vector 0 is all-unbound.
	vecIDs map[string]bkey
	vecs   [][]uint32

	scratchVec []uint32
	scratchKey []byte
	assignBuf  []slotAssign

	// Eviction state: epoch stamps parallel to vals/vecs, free lists of
	// reclaimed ids, and the current watermark epoch. evict gates the
	// whole machinery; without it the stamps stay nil and internVal is
	// the PR 1 fast path.
	evict     bool
	epoch     int64
	epochInit bool
	valEpoch  []int64
	vecEpoch  []int64
	freeVals  []uint32
	freeVecs  []bkey

	// Per-epoch candidate buckets: ids whose stamp was last SET in that
	// epoch (an id touched across k epochs appears in k buckets; only
	// the one matching its current stamp is authoritative). expire walks
	// only the buckets behind the horizon instead of the whole table, so
	// the sweep cost tracks recent intern activity, not table size — a
	// long-lived engine whose value population turned over long ago no
	// longer pays O(len(vals)) on every epoch boundary. Buckets are
	// bookkeeping, rebuilt from the stamps on checkpoint restore.
	valBuckets map[int64][]uint32
	vecBuckets map[int64][]bkey
}

// bkey identifies one equivalence binding. 0 is the all-unbound
// binding (and the only binding of slot-less plans).
type bkey uint64

// slotAssign is one slot assignment demanded by a concrete event:
// slot idx must hold the interned value val.
type slotAssign struct {
	idx int
	val uint32
}

// newBindings builds the intern tables for the plan's slots. Without
// eviction the tables live as long as the engine (they are never
// released per window), so their growth is charged to the accountant
// as it happens: one entry per distinct slot value (and, beyond two
// slots, per distinct value combination) seen over the engine's
// lifetime. With evict set, expire reclaims entries once no open
// window can reference them (see the type comment).
func newBindings(slots []predicate.Equivalence, acct accountant, evict bool) *bindings {
	b := &bindings{nslots: len(slots), acct: acct, evict: evict}
	if b.nslots == 0 {
		return b
	}
	// The empty string IS the unbound value (id 0): the string-keyed
	// representation could not distinguish an empty-valued slot from an
	// unbound one, so an empty value leaves a slot unbound (and cannot
	// extend a binding whose slot holds a non-empty value) — the
	// baselines' shared Binding logic agrees.
	b.valIDs = map[string]uint32{"": 0}
	b.vals = []string{""}
	if evict {
		b.valEpoch = []int64{0}
		b.valBuckets = map[int64][]uint32{}
	}
	if b.nslots > 2 {
		b.vecIDs = map[string]bkey{}
		b.vecs = [][]uint32{make([]uint32, b.nslots)}
		b.scratchVec = make([]uint32, b.nslots)
		b.scratchKey = make([]byte, 0, 4*b.nslots)
		if evict {
			b.vecEpoch = []int64{0}
			b.vecBuckets = map[int64][]bkey{}
		}
	}
	return b
}

// none reports whether there are no slots (the common fast path: every
// binding is the empty key).
func (b *bindings) none() bool { return b.nslots == 0 }

// emptyKey returns the key of the all-unbound binding.
func (b *bindings) emptyKey() bkey { return 0 }

// internVal interns a slot value. The map lookup does not allocate;
// the value string is retained only the first time it is seen (or
// re-seen after eviction reclaimed it).
func (b *bindings) internVal(v string) uint32 {
	if id, ok := b.valIDs[v]; ok {
		if b.evict && b.valEpoch[id] != b.epoch {
			b.valEpoch[id] = b.epoch
			b.valBuckets[b.epoch] = append(b.valBuckets[b.epoch], id)
		}
		return id
	}
	var id uint32
	if n := len(b.freeVals); n > 0 {
		id = b.freeVals[n-1]
		b.freeVals = b.freeVals[:n-1]
		b.vals[id] = v
	} else {
		id = uint32(len(b.vals))
		b.vals = append(b.vals, v)
		if b.evict {
			b.valEpoch = append(b.valEpoch, 0)
		}
	}
	if b.evict {
		b.valEpoch[id] = b.epoch
		b.valBuckets[b.epoch] = append(b.valBuckets[b.epoch], id)
	}
	b.valIDs[v] = id
	b.charge(int64(len(v)) + 16) // value string + two table entries
	return id
}

// charge records intern-table growth with the accountant and the
// table's own footprint counter (so release can credit it back).
func (b *bindings) charge(delta int64) {
	b.bytes += delta
	b.acct.Add(delta)
}

// footprint returns the live logical bytes of the intern tables.
func (b *bindings) footprint() int64 { return b.bytes }

// release returns the intern tables' logical memory to the accountant
// and drops them entirely — release is how an unsubscribing query
// hands the whole footprint back at once (epoch rotation, when
// enabled, only trims expired entries along the way). The bindings
// must not be used afterwards.
func (b *bindings) release() {
	if b.bytes != 0 {
		b.acct.Add(-b.bytes)
		b.bytes = 0
	}
	b.valIDs, b.vals = nil, nil
	b.vecIDs, b.vecs = nil, nil
	b.scratchVec, b.scratchKey = nil, nil
	b.valEpoch, b.vecEpoch = nil, nil
	b.freeVals, b.freeVecs = nil, nil
	b.valBuckets, b.vecBuckets = nil, nil
}

// expire advances the watermark epoch and reclaims every intern entry
// last touched two or more epochs ago: windows referencing such an
// entry have all closed and decoded (a window spans at most one epoch
// length), so its id can be recycled without disturbing live keys.
// Called by the engine after emitting the windows a watermark closed.
// The sweep walks only the per-epoch candidate buckets behind the
// horizon — ids whose stamp was last set back then — so its cost is
// proportional to the intern activity of those epochs, not to the
// table size.
func (b *bindings) expire(epoch int64) {
	if !b.evict || b.nslots == 0 {
		return
	}
	if !b.epochInit {
		// First watermark: adopt its epoch as the base so streams that
		// do not start near time 0 (or start negative) stamp correctly.
		b.epoch, b.epochInit = epoch, true
		return
	}
	if epoch <= b.epoch {
		return
	}
	b.epoch = epoch
	// Keep entries touched in this epoch or the previous one: a window
	// spans at most Within = one epoch length, so a window containing a
	// touch in epoch e has fully closed once the watermark reaches
	// epoch e+2 — stamps <= epoch-2 are unreferenced. Bucket keys are
	// swept in ascending order so the free-list order (and therefore id
	// recycling) is deterministic.
	horizon := epoch - 1
	for _, be := range b.expiredBucketKeys(horizon) {
		for _, id := range b.valBuckets[be] {
			if !b.isLiveVal(id) || b.valEpoch[id] != be {
				continue // recycled, or touched again since this bucket
			}
			v := b.vals[id]
			delete(b.valIDs, v)
			b.vals[id] = ""
			b.freeVals = append(b.freeVals, id)
			b.charge(-(int64(len(v)) + 16))
		}
		delete(b.valBuckets, be)
	}
	if b.vecBuckets == nil {
		return
	}
	keys := make([]int64, 0, len(b.vecBuckets))
	for be := range b.vecBuckets {
		if be < horizon {
			keys = append(keys, be)
		}
	}
	sortEpochs(keys)
	for _, be := range keys {
		for _, id := range b.vecBuckets[be] {
			if b.vecs[id] == nil || b.vecEpoch[id] != be {
				continue
			}
			vec := b.vecs[id]
			k := b.scratchKey[:0]
			for _, v := range vec {
				k = append(k, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
			}
			b.scratchKey = k
			delete(b.vecIDs, string(k))
			b.vecs[id] = nil
			b.freeVecs = append(b.freeVecs, id)
			b.charge(-(int64(8*len(vec)) + 16))
		}
		delete(b.vecBuckets, be)
	}
}

// expiredBucketKeys returns the value-bucket epochs behind the
// horizon, ascending.
func (b *bindings) expiredBucketKeys(horizon int64) []int64 {
	keys := make([]int64, 0, len(b.valBuckets))
	for be := range b.valBuckets {
		if be < horizon {
			keys = append(keys, be)
		}
	}
	sortEpochs(keys)
	return keys
}

// sortEpochs sorts a small epoch-key slice ascending (insertion sort:
// the live bucket population is a handful of epochs).
func sortEpochs(keys []int64) {
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
}

// isLiveVal reports whether a value id currently maps a value (false
// once it sits on the free list). The empty string marks a free slot:
// "" itself always interns to the reserved id 0, so no live id > 0
// holds it.
func (b *bindings) isLiveVal(id uint32) bool { return b.vals[id] != "" }

// assignments returns the slot assignments an event matched under the
// alias of ap must bind, reading slot values from the resolved view.
// ok is false when the event lacks a required attribute, in which case
// it cannot be matched under the alias at all. The returned slice is
// a reused scratch buffer, valid until the next call.
func (b *bindings) assignments(ap *aliasPlan, rv *resolvedVals) ([]slotAssign, bool) {
	out := b.assignBuf[:0]
	for _, sr := range ap.slots {
		if rv.has[sr.attr]&hasSymVal == 0 {
			b.assignBuf = out
			return nil, false
		}
		out = append(out, slotAssign{idx: sr.slot, val: b.internVal(rv.sym[sr.attr])})
	}
	b.assignBuf = out
	return out, true
}

// combine merges slot assignments into an existing binding key. ok is
// false when a slot is already bound to a different value (the
// equivalence predicate rejects the extension).
func (b *bindings) combine(key bkey, assigns []slotAssign) (bkey, bool) {
	if len(assigns) == 0 {
		return key, true
	}
	if b.nslots <= 2 {
		for _, a := range assigns {
			shift := uint(a.idx) * 32
			switch cur := uint32(key >> shift); cur {
			case 0:
				key |= bkey(a.val) << shift
			case a.val:
			default:
				return 0, false
			}
		}
		return key, true
	}
	copy(b.scratchVec, b.vecs[key])
	for _, a := range assigns {
		switch cur := b.scratchVec[a.idx]; cur {
		case 0:
			b.scratchVec[a.idx] = a.val
		case a.val:
		default:
			return 0, false
		}
	}
	return b.internVec(b.scratchVec), true
}

// internVec interns a value-id vector; allocation-free when the
// vector has been seen before.
func (b *bindings) internVec(vec []uint32) bkey {
	k := b.scratchKey[:0]
	for _, v := range vec {
		k = append(k, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	b.scratchKey = k
	if id, ok := b.vecIDs[string(k)]; ok {
		if b.evict && b.vecEpoch[id] != b.epoch {
			b.vecEpoch[id] = b.epoch
			b.vecBuckets[b.epoch] = append(b.vecBuckets[b.epoch], id)
		}
		return id
	}
	var id bkey
	if n := len(b.freeVecs); n > 0 {
		id = b.freeVecs[n-1]
		b.freeVecs = b.freeVecs[:n-1]
		b.vecs[id] = append([]uint32(nil), vec...)
	} else {
		id = bkey(len(b.vecs))
		b.vecs = append(b.vecs, append([]uint32(nil), vec...))
		if b.evict {
			b.vecEpoch = append(b.vecEpoch, 0)
		}
	}
	if b.evict {
		b.vecEpoch[id] = b.epoch
		b.vecBuckets[b.epoch] = append(b.vecBuckets[b.epoch], id)
	}
	b.vecIDs[string(k)] = id
	b.charge(int64(8*len(vec)) + 16) // vector + packed-bytes key
	return id
}

// startKey returns the binding of a trend consisting of only the new
// event: all slots unbound except the event's own assignments.
func (b *bindings) startKey(assigns []slotAssign) bkey {
	key, _ := b.combine(0, assigns) // cannot conflict: all slots unbound
	return key
}

// appendDecoded appends the slot value strings of a binding key to dst,
// "" meaning unbound: one value per slot, nothing for a slot-less plan.
// Called per binding when a window closes, into scratch the close owns.
func (b *bindings) appendDecoded(dst []string, key bkey) []string {
	if b.nslots <= 2 {
		for i := 0; i < b.nslots; i++ {
			dst = append(dst, b.vals[uint32(key>>(uint(i)*32))])
		}
		return dst
	}
	for _, v := range b.vecs[key] {
		dst = append(dst, b.vals[v])
	}
	return dst
}
