package core

import (
	"hash/maphash"
	"slices"
	"strings"
)

// partDict is an engine's partition dictionary: it numbers the stream
// partition keys (§7: sub-streams) the engine has open, so an event
// resolves its key once and each of its windows indexes a slot array
// (winState.sas) by the id, instead of probing a string map per window.
// Plans without partition attributes have one sub-stream, id 0, and no
// dictionary: they touch none of this.
//
// A window close reports its partitions in key order by walking order,
// which keeps the live ids sorted by key; the ids an advance added are
// merged in at the next close. Ids are recycled at the pools' generation
// end (sweep): an id that no window opened through a whole generation is
// held by no open window, so its key is forgotten and the id reused.
// When a sweep leaves fewer than a quarter of the ids live, the
// dictionary is rebuilt at the live size (compact), the rule pool.trim
// follows, so a cardinality spike costs memory for a generation, not
// for the engine's lifetime.
//
// A key finds its id through index, an open-addressing table with
// linear probing over the keys' hashes that holds id+1 per used cell (0
// is empty) and stays at most half full. Freeing a key shifts the cells
// behind it back instead of leaving a tombstone, so a key space that
// churns keeps the table at twice the live keys; a Go map never shrinks
// its tables, and the tombstones of a churning key space grow them.
type partDict struct {
	index   []int32
	seed    maphash.Seed
	live    int         // the ids in use: len(parts) - len(free)
	parts   []partEntry // by id
	order   []int32     // the merged live ids, by key
	pending []int32     // the ids added since the last merge
	free    []int32
	// sweptBelow is the closed-window bound of the previous sweep: every
	// window below it had closed when that sweep ran.
	sweptBelow int64
}

// partEntry is one partition id's entry; a free id's key is "".
type partEntry struct {
	key string
	// last is the highest window id that opened the partition: a window
	// holding the id has wid <= last.
	last int64
}

// dictStart is the number of ids a dictionary is first sized for: an
// engine's first few keys then cost one allocation per slice, not one
// per doubling. Its index starts at twice that.
const dictStart = 8

// pidZero is the walk of a plan without partition attributes: its one
// sub-stream.
var pidZero = []int32{0}

// id returns the id of key, numbering it on its first sight. key is
// retained: the caller passes a string it does not mutate.
func (d *partDict) id(key string) int32 {
	cell, pid := d.find(key)
	if pid < 0 {
		pid = d.add(key, cell)
	}
	return pid
}

// find returns key's id, or -1 and the empty cell where the probe for
// it ended.
func (d *partDict) find(key string) (cell int, pid int32) {
	if d.index == nil {
		return -1, -1
	}
	mask := len(d.index) - 1
	for cell = int(maphash.String(d.seed, key)) & mask; ; cell = (cell + 1) & mask {
		switch p := d.index[cell] - 1; {
		case p < 0:
			return cell, -1
		case d.parts[p].key == key:
			return cell, p
		}
	}
}

// add numbers a key the dictionary does not hold; cell is where find's
// probe for it ended.
func (d *partDict) add(key string, cell int) int32 {
	if 2*(d.live+1) > len(d.index) {
		d.reindex(max(2*len(d.index), 2*dictStart))
		cell, _ = d.find(key)
	}
	if d.parts == nil {
		d.parts = make([]partEntry, 0, dictStart)
		d.pending = make([]int32, 0, dictStart)
		d.free = make([]int32, 0, dictStart)
	}
	entry := partEntry{key: key, last: -1} // no window opened it yet
	var pid int32
	if n := len(d.free); n > 0 {
		pid = d.free[n-1]
		d.free = d.free[:n-1]
		d.parts[pid] = entry
	} else {
		pid = int32(len(d.parts))
		d.parts = append(d.parts, entry)
	}
	d.index[cell] = pid + 1
	d.live++
	d.pending = append(d.pending, pid)
	return pid
}

// reindex rebuilds the index at size cells (a power of two) over the
// live ids.
func (d *partDict) reindex(size int) {
	if d.index == nil {
		d.seed = maphash.MakeSeed()
	}
	d.index = make([]int32, size)
	for _, ids := range [2][]int32{d.order, d.pending} {
		for _, pid := range ids {
			cell, _ := d.find(d.parts[pid].key)
			d.index[cell] = pid + 1
		}
	}
}

// unindex removes a live key from the index. The cells after it, up to
// the next empty one, move back into the hole unless that would put
// them before their home cell, so every probe still ends at the first
// empty cell.
func (d *partDict) unindex(key string) {
	mask := len(d.index) - 1
	hole, _ := d.find(key)
	for cell := (hole + 1) & mask; d.index[cell] != 0; cell = (cell + 1) & mask {
		home := int(maphash.String(d.seed, d.parts[d.index[cell]-1].key)) & mask
		// The entry stays when its home lies cyclically in (hole, cell].
		if (hole < cell && hole < home && home <= cell) || (cell < hole && (hole < home || home <= cell)) {
			continue
		}
		d.index[hole] = d.index[cell]
		hole = cell
	}
	d.index[hole] = 0
	d.live--
}

// key returns the partition key of a live id ("" is the key of a plan
// without partition attributes).
func (d *partDict) key(pid int32) string {
	if int(pid) < len(d.parts) {
		return d.parts[pid].key
	}
	return ""
}

// opened records that window wid opened partition pid.
func (d *partDict) opened(pid int32, wid int64) {
	if int(pid) < len(d.parts) && d.parts[pid].last < wid {
		d.parts[pid].last = wid
	}
}

// merge sorts the pending ids by key and merges them into order, in
// place from the back, so only the stretch behind the first new key
// moves.
func (d *partDict) merge() {
	k := len(d.pending)
	if k == 0 {
		return
	}
	parts := d.parts
	slices.SortFunc(d.pending, func(a, b int32) int { return strings.Compare(parts[a].key, parts[b].key) })
	n := len(d.order)
	d.order = slices.Grow(d.order, max(k, dictStart))[:n+k]
	i, j := n-1, k-1
	for w := n + k - 1; j >= 0; w-- {
		if i >= 0 && parts[d.order[i]].key > parts[d.pending[j]].key {
			d.order[w] = d.order[i]
			i--
		} else {
			d.order[w] = d.pending[j]
			j--
		}
	}
	d.pending = d.pending[:0]
}

// sweep ends a generation once every window below closedBelow has
// closed: it frees the ids whose last opening window lies below the
// previous sweep's bound — no window opened them through a whole
// generation, and none that did is open — and reports whether the
// dictionary has shrunk to under a quarter of its ids (a small one is
// left as it is: rebuilding it would cost more than it holds).
func (d *partDict) sweep(closedBelow int64) (sparse bool) {
	d.merge()
	live := d.order[:0]
	for _, pid := range d.order {
		if d.parts[pid].last >= d.sweptBelow {
			live = append(live, pid)
			continue
		}
		d.unindex(d.parts[pid].key)
		d.parts[pid] = partEntry{}
		poisonPartition(&d.parts[pid])
		d.free = append(d.free, pid)
	}
	d.order = live
	d.sweptBelow = closedBelow
	return len(d.parts) > 4*max(len(live), 64)
}

// compact renumbers the live ids 0.. in key order into storage sized for
// them and returns the old-to-new mapping, which the caller applies to
// every slot array that holds ids.
func (d *partDict) compact() (remap []int32) {
	remap = make([]int32, len(d.parts))
	parts := make([]partEntry, len(d.order))
	for i, pid := range d.order {
		remap[pid] = int32(i)
		parts[i] = d.parts[pid]
		d.order[i] = int32(i)
	}
	d.parts = parts
	d.order, d.pending, d.free = slices.Clone(d.order), nil, nil
	size := 2 * dictStart
	for size < 2*(d.live+1) {
		size *= 2
	}
	d.reindex(size)
	return remap
}
