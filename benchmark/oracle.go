package main

import (
	"slices"
	"sort"
	"sync"

	"rsse"
)

// The plaintext oracle: a sorted-slice reference model of what each
// workload's data holds, against which answers are compared id for id.

type pair struct{ value, id uint64 }

// snapshot is an immutable set of live tuples sorted by (value, id).
type snapshot []pair

func newSnapshot(tuples []rsse.Tuple) snapshot {
	s := make(snapshot, len(tuples))
	for i, t := range tuples {
		s[i] = pair{t.Value, t.ID}
	}
	s.sort()
	return s
}

func (s snapshot) sort() {
	slices.SortFunc(s, func(a, b pair) int {
		if a.value != b.value {
			if a.value < b.value {
				return -1
			}
			return 1
		}
		if a.id < b.id {
			return -1
		}
		if a.id > b.id {
			return 1
		}
		return 0
	})
}

// ids returns the sorted ids of the tuples whose value lies in q.
func (s snapshot) ids(q rsse.Range) []uint64 {
	lo := sort.Search(len(s), func(i int) bool { return s[i].value >= q.Lo })
	hi := sort.Search(len(s), func(i int) bool { return s[i].value > q.Hi })
	out := make([]uint64, 0, hi-lo)
	for _, p := range s[lo:hi] {
		out = append(out, p.id)
	}
	slices.Sort(out)
	return out
}

// sameIDs compares an answer with the oracle's, ignoring order.
func sameIDs(got, want []uint64) bool {
	if len(got) != len(want) {
		return false
	}
	g := slices.Clone(got)
	slices.Sort(g)
	return slices.Equal(g, want)
}

// oracle answers "is this what the plaintext data says" for one op.
type oracle interface {
	// begin is called before a read is sent, end-to-end check after the
	// answer arrived; the token begin returns brackets the states the
	// read may legitimately have seen.
	begin() int
	check(token int, o *op, ids [][]uint64) bool
}

// staticOracle models an index that never changes.
type staticOracle struct{ snap snapshot }

func (s staticOracle) begin() int { return 0 }

func (s staticOracle) check(_ int, o *op, ids [][]uint64) bool {
	if len(ids) != len(o.ranges) {
		return false
	}
	for i, q := range o.ranges {
		if !sameIDs(ids[i], s.snap.ids(q)) {
			return false
		}
	}
	return true
}

// dynamicOracle models the writable store: the insert/delete history is
// applied to a live map, and every flush freezes a snapshot. A read sees
// flushed epochs only, so its answer must equal the oracle's on one of
// the snapshots that were current while the read was in flight.
type dynamicOracle struct {
	mu        sync.Mutex
	live      map[uint64]uint64 // id → value, every acknowledged write applied
	snaps     map[int]snapshot  // generation → flushed state (recent ones only)
	flushing  int               // flushes started
	completed int               // flushes acknowledged
}

func newDynamicOracle() *dynamicOracle {
	return &dynamicOracle{live: make(map[uint64]uint64), snaps: map[int]snapshot{0: nil}}
}

func (d *dynamicOracle) insert(id, value uint64) {
	d.mu.Lock()
	d.live[id] = value
	d.mu.Unlock()
}

func (d *dynamicOracle) delete(id uint64) {
	d.mu.Lock()
	delete(d.live, id)
	d.mu.Unlock()
}

// flushStarted and flushDone bracket one Flush call on the store. The
// snapshot is frozen at the start — the single writer is inside Flush, so
// the live state is exactly what the flush seals — and a read answered
// between the server finishing the flush and the writer hearing of it
// already finds its generation here.
func (d *dynamicOracle) flushStarted() {
	snap := d.liveSnapshot()
	d.mu.Lock()
	d.flushing++
	d.snaps[d.flushing] = snap
	delete(d.snaps, d.flushing-4)
	d.mu.Unlock()
}

func (d *dynamicOracle) flushDone() {
	d.mu.Lock()
	d.completed++
	d.mu.Unlock()
}

// liveSnapshot freezes every acknowledged write. Only the writer calls
// it, between its own ops, so the map is not changing underneath.
func (d *dynamicOracle) liveSnapshot() snapshot {
	d.mu.Lock()
	snap := make(snapshot, 0, len(d.live))
	for id, v := range d.live {
		snap = append(snap, pair{v, id})
	}
	d.mu.Unlock()
	snap.sort()
	return snap
}

func (d *dynamicOracle) begin() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.completed
}

func (d *dynamicOracle) check(token int, o *op, ids [][]uint64) bool {
	if len(ids) != 1 || len(o.ranges) != 1 {
		return false
	}
	d.mu.Lock()
	last := d.flushing
	var candidates []snapshot
	for g := token; g <= last; g++ {
		if s, ok := d.snaps[g]; ok {
			candidates = append(candidates, s)
		}
	}
	d.mu.Unlock()
	for _, s := range candidates {
		if sameIDs(ids[0], s.ids(o.ranges[0])) {
			return true
		}
	}
	return false
}
