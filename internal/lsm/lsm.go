// Package lsm implements the update mechanism of Section 7: batched
// updates over *static* RSSE indexes, consolidated hierarchically like a
// log-structured merge tree (the Vertica-style bulk loading the paper
// adopts).
//
// Every flushed batch becomes an independent index under a fresh key;
// deletions ride along as tombstone records; queries fan out over all
// active indexes and the owner resolves the per-id operation history.
// Because each epoch has its own keys, a token issued for an old epoch is
// useless against any later index — the forward privacy property the
// section formalizes. With consolidation step s, at most O(s·log_s b)
// indexes are ever active for b flushed batches.
package lsm

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"rsse/internal/core"
	"rsse/internal/cover"
	"rsse/internal/prf"
	"rsse/internal/wal"
)

// OpKind distinguishes the record types inside a batch.
type OpKind byte

const (
	// OpInsert adds a live tuple.
	OpInsert OpKind = 1
	// OpDelete is a tombstone: it cancels any earlier operation on the
	// same application id. It is indexed under the value the tuple had,
	// so range queries that would have matched the victim retrieve it.
	OpDelete OpKind = 2
)

// Op is one buffered update.
type Op struct {
	Kind  OpKind
	ID    core.ID // application-level tuple id
	Value core.Value
	// Payload is the application payload (inserts only).
	Payload []byte
	seq     uint64 // global operation order, assigned by the manager
}

// Errors returned by the manager.
var (
	ErrBadStep = errors.New("lsm: consolidation step must be at least 2")
	// ErrClosed is returned when a durable manager is mutated or queried
	// after Close: silently downgrading to memory-only would hand out
	// durability acknowledgements that mean nothing, and Close released
	// the epochs' index files.
	ErrClosed = errors.New("lsm: manager is closed")
)

// epoch is one active static index.
type epoch struct {
	seq    uint64 // creation order
	client *core.Client
	index  *core.Index
	// persisted marks epochs whose sealed index file is already on disk
	// (durable managers only); commit skips re-serializing them.
	persisted bool
}

// Manager is the owner-side update coordinator.
type Manager struct {
	kind   core.Kind
	dom    cover.Domain
	step   int
	master prf.Key
	opts   core.Options

	pending   []Op
	nextOpSeq uint64
	nextEpoch uint64
	// levels[i] holds the not-yet-consolidated epochs of LSM level i,
	// oldest first. When a level accumulates `step` epochs they merge
	// into one epoch at level i+1.
	levels [][]*epoch

	// Durable state (OpenManager only): the directory epochs persist to
	// and the write-ahead log updates hit before they are buffered. Both
	// zero for a memory-only manager.
	dir string
	log *wal.Log
	// dirty marks an in-memory epoch set that has diverged from the
	// on-disk manifest — set when a flush builds or consolidates epochs,
	// cleared by a successful commit. A retried Flush with an empty
	// pending buffer must still commit when dirty, or a commit that
	// failed once (disk full) would be silently skipped forever.
	dirty bool
}

// NewManager creates an update manager for the given scheme and domain.
// step is the consolidation step s (how many sibling indexes trigger a
// merge); opts configures every per-epoch client (its MasterKey field is
// ignored — each epoch derives a fresh key from the manager's master).
func NewManager(kind core.Kind, dom cover.Domain, step int, opts core.Options) (*Manager, error) {
	master, err := prf.NewKey(nil)
	if err != nil {
		return nil, err
	}
	return NewManagerWithMaster(kind, dom, step, master, opts)
}

// NewManagerWithMaster is NewManager with the manager's master key fixed
// by the caller instead of drawn at random. A sharded deployment derives
// one master per shard from a cluster key, so every shard's epochs are
// independently keyed yet the whole cluster's update state re-creates
// from a single secret.
func NewManagerWithMaster(kind core.Kind, dom cover.Domain, step int, master prf.Key, opts core.Options) (*Manager, error) {
	if step < 2 {
		return nil, ErrBadStep
	}
	return &Manager{kind: kind, dom: dom, step: step, master: master, opts: opts}, nil
}

// Insert buffers a live-tuple insertion. On a durable manager the
// operation is appended to the write-ahead log — and, per the fsync
// policy, synced — before it is buffered, so a nil return means the
// insert survives a crash.
func (m *Manager) Insert(id core.ID, v core.Value, payload []byte) error {
	return m.apply(wal.Record{Kind: wal.Insert, ID: id, Value: v, Payload: payload})
}

// Delete buffers a deletion tombstone. value must be the victim tuple's
// current attribute value — the tombstone is indexed under it so that any
// range query matching the victim also retrieves the tombstone. Durable
// managers log before buffering, as with Insert.
func (m *Manager) Delete(id core.ID, value core.Value) error {
	return m.apply(wal.Record{Kind: wal.Delete, ID: id, Value: value})
}

// Modify buffers a value/payload change: a tombstone under the old value
// followed by an insertion under the new one, exactly as Section 7
// treats modifications. On a durable manager the pair is ONE atomic WAL
// record, so recovery can never keep the insertion without its
// tombstone (or vice versa).
func (m *Manager) Modify(id core.ID, oldValue, newValue core.Value, payload []byte) error {
	return m.apply(wal.Record{Kind: wal.Modify, ID: id, Value: oldValue, NewValue: newValue, Payload: payload})
}

// apply assigns the next operation sequence number(s) to one update
// record, logs it first when durable, then buffers its operations.
func (m *Manager) apply(rec wal.Record) error {
	if m.closed() {
		return ErrClosed
	}
	rec.Seq = m.nextOpSeq
	if m.log != nil {
		if err := m.log.Append(rec); err != nil {
			return fmt.Errorf("lsm: wal append: %w", err)
		}
	}
	m.bufferRecord(rec)
	return nil
}

// closed reports a durable manager whose WAL has been closed or
// abandoned — mutations must fail rather than silently lose their
// durability guarantee.
func (m *Manager) closed() bool { return m.dir != "" && m.log == nil }

// bufferRecord buffers the operation(s) of one update record without
// logging — shared by live updates (already logged by apply) and
// recovery replay (already in the log).
func (m *Manager) bufferRecord(rec wal.Record) {
	switch rec.Kind {
	case wal.Insert:
		m.pending = append(m.pending, Op{Kind: OpInsert, ID: rec.ID, Value: rec.Value, Payload: rec.Payload, seq: rec.Seq})
	case wal.Delete:
		m.pending = append(m.pending, Op{Kind: OpDelete, ID: rec.ID, Value: rec.Value, seq: rec.Seq})
	case wal.Modify:
		m.pending = append(m.pending,
			Op{Kind: OpDelete, ID: rec.ID, Value: rec.Value, seq: rec.Seq},
			Op{Kind: OpInsert, ID: rec.ID, Value: rec.NewValue, Payload: rec.Payload, seq: rec.Seq + 1})
	}
	m.nextOpSeq = rec.Seq + rec.Span()
	mPending.Set(int64(len(m.pending)))
}

// Pending returns the number of buffered operations.
func (m *Manager) Pending() int { return len(m.pending) }

// ActiveIndexes returns the number of indexes the server currently holds.
func (m *Manager) ActiveIndexes() int {
	n := 0
	for _, lvl := range m.levels {
		n += len(lvl)
	}
	return n
}

// Batches returns the number of batches flushed so far.
func (m *Manager) Batches() uint64 { return m.nextEpoch }

// TotalIndexSize sums the sizes of all active encrypted indexes.
func (m *Manager) TotalIndexSize() int {
	n := 0
	for _, lvl := range m.levels {
		for _, e := range lvl {
			n += e.index.Size()
		}
	}
	return n
}

// encodeOp packs an operation into the encrypted tuple-store payload:
// op kind, application id, global sequence number, application payload.
func encodeOp(op Op) []byte {
	out := make([]byte, 1+8+8+len(op.Payload))
	out[0] = byte(op.Kind)
	binary.BigEndian.PutUint64(out[1:9], op.ID)
	binary.BigEndian.PutUint64(out[9:17], op.seq)
	copy(out[17:], op.Payload)
	return out
}

// decodeOp reverses encodeOp; value comes from the tuple itself.
func decodeOp(value core.Value, payload []byte) (Op, error) {
	if len(payload) < 17 {
		return Op{}, fmt.Errorf("lsm: corrupt op payload (%d bytes)", len(payload))
	}
	kind := OpKind(payload[0])
	if kind != OpInsert && kind != OpDelete {
		return Op{}, fmt.Errorf("lsm: unknown op kind %d", payload[0])
	}
	return Op{
		Kind:    kind,
		ID:      binary.BigEndian.Uint64(payload[1:9]),
		Value:   value,
		seq:     binary.BigEndian.Uint64(payload[9:17]),
		Payload: append([]byte(nil), payload[17:]...),
	}, nil
}

// buildEpoch encrypts a batch of ops into a fresh static index. Tuples
// are stored under synthetic epoch-local ids (their sequence numbers), so
// the server cannot even correlate application ids across epochs.
func (m *Manager) buildEpoch(ops []Op) (*epoch, error) {
	seq := m.nextEpoch
	m.nextEpoch++
	opts := m.opts
	key := prf.DeriveN(m.master, "epoch", seq)
	opts.MasterKey = key[:]
	client, err := core.NewClient(m.kind, m.dom, opts)
	if err != nil {
		return nil, err
	}
	tuples := make([]core.Tuple, len(ops))
	for i, op := range ops {
		tuples[i] = core.Tuple{ID: op.seq, Value: op.Value, Payload: encodeOp(op)}
	}
	index, err := client.BuildIndex(tuples)
	if err != nil {
		return nil, err
	}
	return &epoch{seq: seq, client: client, index: index}, nil
}

// Flush seals the pending batch into a new index and consolidates any
// level that reached the step threshold. A flush with no pending
// operations is a no-op. On a durable manager the new epoch set is
// persisted — sealed index files, then the atomic manifest swing — and
// the write-ahead log resets, its records now dead weight.
func (m *Manager) Flush() error {
	if m.closed() {
		return ErrClosed
	}
	if len(m.pending) == 0 {
		if m.dirty && m.log != nil {
			// A previous flush built its epochs but failed to commit
			// (e.g. disk full): the retry has nothing pending yet must
			// still make the epoch set durable.
			return m.commit()
		}
		return nil
	}
	ops := m.pending
	m.pending = nil
	e, err := m.buildEpoch(ops)
	if err != nil {
		// The ops were acknowledged (and, when durable, WAL-logged):
		// restore them so a failed flush loses nothing and a later flush
		// retries — dropping them here would let the next commit's
		// high-water mark bury their WAL records unsealed.
		m.pending = ops
		return err
	}
	if len(m.levels) == 0 {
		m.levels = append(m.levels, nil)
	}
	m.levels[0] = append(m.levels[0], e)
	m.dirty = true
	mFlushes.Inc()
	m.observeState()
	if err := m.consolidate(); err != nil {
		return err
	}
	if m.log != nil {
		return m.commit()
	}
	m.dirty = false
	return nil
}

// consolidate merges full levels upward until every level is below step.
func (m *Manager) consolidate() error {
	for lvl := 0; lvl < len(m.levels); lvl++ {
		for len(m.levels[lvl]) >= m.step {
			group := m.levels[lvl][:m.step]
			merged, err := m.merge(group, false)
			if err != nil {
				// The group stays in place: a failed merge must not drop
				// live epochs, and the next flush retries it.
				return err
			}
			m.levels[lvl] = append([]*epoch(nil), m.levels[lvl][m.step:]...)
			closeEpochs(group)
			if lvl+1 == len(m.levels) {
				m.levels = append(m.levels, nil)
			}
			m.levels[lvl+1] = append(m.levels[lvl+1], merged)
			mConsolidations.Inc()
			m.observeState()
		}
	}
	return nil
}

// closeEpochs releases the indexes of epochs the manager no longer
// holds: a reopened epoch's file mapping, if it kept one. Built epochs
// hold none.
func closeEpochs(es []*epoch) {
	for _, e := range es {
		e.index.Close()
	}
}

// downloadOps decrypts every record of an epoch — the "owner downloads
// the involved indexes" step of the consolidation protocol.
func downloadOps(e *epoch) ([]Op, error) {
	tuples, err := e.client.FetchTuples(context.TODO(), e.index, e.index.Store().IDs())
	if err != nil {
		return nil, err
	}
	ops := make([]Op, 0, len(tuples))
	for _, t := range tuples {
		op, err := decodeOp(t.Value, t.Payload)
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// merge downloads a group of epochs, resolves operation histories, and
// re-encrypts the survivors into a single fresh epoch.
//
// Resolution is per (id, value) pair — NOT per id: a tombstone under an
// old value must survive even when the same id was later re-inserted
// under a different value within the group, because an older epoch
// outside the group may still hold an insert at the old value that only
// this tombstone can cancel. (Queries resolve by maximum sequence number
// among the operations they retrieve, and they only retrieve operations
// indexed under values inside the query range.)
//
// dropTombstones is only safe when the group spans every active epoch:
// then nothing older remains for a tombstone to kill.
func (m *Manager) merge(group []*epoch, dropTombstones bool) (*epoch, error) {
	type idValue struct {
		id    core.ID
		value core.Value
	}
	latest := make(map[idValue]Op)
	for _, e := range group {
		ops, err := downloadOps(e)
		if err != nil {
			return nil, err
		}
		for _, op := range ops {
			key := idValue{id: op.ID, value: op.Value}
			if cur, ok := latest[key]; !ok || op.seq > cur.seq {
				latest[key] = op
			}
		}
	}
	var survivors []Op
	for _, op := range latest {
		if op.Kind == OpDelete && dropTombstones {
			continue
		}
		survivors = append(survivors, op)
	}
	return m.buildEpoch(survivors)
}

// FullConsolidate merges every active epoch into a single fresh index and
// discards tombstones — the periodic global rebuild large systems run.
func (m *Manager) FullConsolidate() error {
	if m.closed() {
		return ErrClosed
	}
	if len(m.pending) > 0 {
		if err := m.Flush(); err != nil {
			return err
		}
	}
	var all []*epoch
	for _, lvl := range m.levels {
		all = append(all, lvl...)
	}
	if len(all) == 0 {
		return nil
	}
	merged, err := m.merge(all, true)
	if err != nil {
		return err
	}
	closeEpochs(all)
	m.levels = [][]*epoch{nil, {merged}}
	m.dirty = true
	mConsolidations.Inc()
	m.observeState()
	if m.log != nil {
		return m.commit()
	}
	m.dirty = false
	return nil
}

// QueryStats aggregates per-epoch query costs.
type QueryStats struct {
	Indexes        int // active indexes the query fanned out to
	Tokens         int
	TokenBytes     int
	Raw            int
	FalsePositives int
}

// QueryBatch answers several ranges against every active epoch and
// resolves the operation history at the owner: per range, the newest
// operation per application id wins and tombstones drop their victims.
// Results carry application ids, current values and payloads. Every
// epoch receives one batched sub-query: each epoch's covers are deduplicated
// across the whole batch, so the per-epoch round cost — the multiplier
// an LSM pays on every query — is paid once per unique cover node
// instead of once per range. Each epoch keeps its own keys, so every
// per-epoch round runs under that epoch's client; the fan-out aborts
// between rounds when ctx is done. Results are per input range, in input
// order.
func (m *Manager) QueryBatch(ctx context.Context, qs []core.Range) ([][]core.Tuple, QueryStats, error) {
	var stats QueryStats
	if m.closed() {
		return nil, stats, ErrClosed
	}
	// latest[i] holds range i's newest operation per application id.
	latest := make([]map[core.ID]Op, len(qs))
	for i := range latest {
		latest[i] = make(map[core.ID]Op)
	}
	// br, ids and ops are reused across epochs: ids holds an epoch's
	// matched store ids and ops[k] the operation stored under ids[k].
	var (
		br  core.BatchResult
		ids []core.ID
		ops []Op
	)
	for _, lvl := range m.levels {
		for _, e := range lvl {
			stats.Indexes++
			if err := e.client.QueryBatchInto(ctx, e.index, qs, &br); err != nil {
				return nil, stats, err
			}
			stats.Tokens += br.Stats.UniqueTokens
			stats.TokenBytes += br.Stats.TokenBytes
			ids = ids[:0]
			for _, res := range br.Results {
				stats.Raw += res.Stats.Raw
				stats.FalsePositives += res.Stats.FalsePositives
				ids = append(ids, res.Matches...)
			}
			// One range's matches are distinct already. The shared covers
			// of a batch return the same store ids for several ranges, so
			// a batch fetches and decodes each id once per epoch (sorted),
			// all of them in one fetch round.
			if len(qs) > 1 {
				slices.Sort(ids)
				ids = slices.Compact(ids)
			}
			tuples, err := e.client.FetchTuples(ctx, e.index, ids)
			if err != nil {
				return nil, stats, err
			}
			ops = slices.Grow(ops[:0], len(tuples))
			for _, t := range tuples {
				op, err := decodeOp(t.Value, t.Payload)
				if err != nil {
					return nil, stats, err
				}
				ops = append(ops, op)
			}
			for i, res := range br.Results {
				for j, storeID := range res.Matches {
					k := j // storeID's position in ids
					if len(qs) > 1 {
						k, _ = slices.BinarySearch(ids, storeID)
					}
					op := ops[k]
					if cur, dup := latest[i][op.ID]; !dup || op.seq > cur.seq {
						latest[i][op.ID] = op
					}
				}
			}
		}
	}
	out := make([][]core.Tuple, len(qs))
	for i, l := range latest {
		for _, op := range l {
			if op.Kind == OpInsert {
				out[i] = append(out[i], core.Tuple{ID: op.ID, Value: op.Value, Payload: op.Payload})
			}
		}
	}
	return out, stats, nil
}
