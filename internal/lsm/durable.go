package lsm

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rsse/internal/core"
	"rsse/internal/cover"
	"rsse/internal/prf"
	"rsse/internal/wal"
)

// On-disk layout of a durable manager's directory:
//
//	<dir>/epochs.json     manifest: scheme parameters, epoch levels,
//	                      file names, WAL high-water mark
//	<dir>/wal.log         write-ahead log of not-yet-flushed updates
//	<dir>/epoch-<seq>.idx one serialized v2 index container per sealed
//	                      epoch (Index.MarshalBinary format)
//
// The manifest rename is the commit point of every flush: epoch files
// are written and fsynced first, then the manifest swings atomically,
// then the WAL resets and dropped epoch files are unlinked. A crash in
// any window leaves either the old state (plus a replayable WAL and
// possibly orphaned epoch files, cleaned on open) or the new one.
const (
	// ManifestFileName is the epoch manifest inside a durable directory.
	ManifestFileName = "epochs.json"
	// WALFileName is the write-ahead log inside a durable directory.
	WALFileName = "wal.log"
)

// ErrManifestMismatch is returned by OpenManager when the directory's
// manifest was written for different scheme parameters than the caller
// asked for — opening a Logarithmic-BRC log-structured store as
// Quadratic can only corrupt it.
var ErrManifestMismatch = errors.New("lsm: directory manifest disagrees with requested parameters")

// manifestEpoch locates one persisted epoch.
type manifestEpoch struct {
	Seq  uint64 `json:"seq"`
	File string `json:"file"`
}

// manifest is the JSON body of epochs.json.
type manifest struct {
	Version    int    `json:"version"`
	Kind       string `json:"kind"`
	DomainBits uint8  `json:"domain_bits"`
	Step       int    `json:"step"`
	NextEpoch  uint64 `json:"next_epoch"`
	// HighWater is the WAL high-water mark: every operation with a
	// sequence number below it is sealed inside the persisted epochs, so
	// replay skips such records.
	HighWater uint64            `json:"wal_high_water"`
	Levels    [][]manifestEpoch `json:"levels"`
}

// ManagerMeta is the recoverable identity of a durable directory, read
// without keys: callers (rsse-server, OpenDynamic) use it to adopt the
// directory's parameters instead of guessing.
type ManagerMeta struct {
	Kind       core.Kind
	DomainBits uint8
	Step       int
}

// ReadManagerMeta reads the scheme parameters a durable directory was
// created with. os.IsNotExist(err) distinguishes a fresh directory.
func ReadManagerMeta(dir string) (ManagerMeta, error) {
	man, err := readManifest(dir)
	if err != nil {
		return ManagerMeta{}, err
	}
	kind, err := core.KindByName(man.Kind)
	if err != nil {
		return ManagerMeta{}, fmt.Errorf("lsm: manifest: %w", err)
	}
	return ManagerMeta{Kind: kind, DomainBits: man.DomainBits, Step: man.Step}, nil
}

func readManifest(dir string) (manifest, error) {
	blob, err := os.ReadFile(filepath.Join(dir, ManifestFileName))
	if err != nil {
		return manifest{}, err
	}
	var man manifest
	if err := json.Unmarshal(blob, &man); err != nil {
		return manifest{}, fmt.Errorf("lsm: manifest %s: %w", ManifestFileName, err)
	}
	return man, nil
}

// epochFileName is the on-disk name of a sealed epoch's index container.
func epochFileName(seq uint64) string { return fmt.Sprintf("epoch-%d.idx", seq) }

// OpenManager opens (creating if fresh) a durable update manager rooted
// at dir and recovers its exact pre-crash state: persisted epochs load
// from their sealed index files, the WAL tail replays into the pending
// buffer, and consolidation resumes where it left off at the next
// flush. syncEvery is the WAL fsync policy (see wal.WithSyncEvery);
// pass 1 for strict durability of every acknowledged update.
//
// The master key is the caller's responsibility (OpenDynamic persists
// it beside the directory); opening with a different master than the
// epochs were built under makes every query fail to decrypt.
func OpenManager(dir string, kind core.Kind, dom cover.Domain, step int, master prf.Key, opts core.Options, syncEvery int) (*Manager, error) {
	openStart := time.Now()
	m, err := NewManagerWithMaster(kind, dom, step, master, opts)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	m.dir = dir

	man, err := readManifest(dir)
	switch {
	case err == nil:
		if man.Kind != kind.String() || man.DomainBits != dom.Bits || man.Step != step {
			return nil, fmt.Errorf("%w: directory holds %s/2^%d/step %d, caller asked %s/2^%d/step %d",
				ErrManifestMismatch, man.Kind, man.DomainBits, man.Step, kind, dom.Bits, step)
		}
		m.nextEpoch = man.NextEpoch
		m.nextOpSeq = man.HighWater
		for _, lvl := range man.Levels {
			var epochs []*epoch
			for _, ent := range lvl {
				e, err := m.loadEpoch(ent)
				if err != nil {
					return nil, err
				}
				epochs = append(epochs, e)
			}
			m.levels = append(m.levels, epochs)
		}
	case os.IsNotExist(err):
		// Fresh directory: pin the scheme parameters NOW, before any
		// update is acknowledged. A zero-state manifest written only at
		// first flush would let a crash-before-flush directory reopen
		// under different parameters and reinterpret its WAL records.
		if err := m.writeManifest(0); err != nil {
			return nil, err
		}
	default:
		return nil, err
	}

	log, recs, err := wal.Open(filepath.Join(dir, WALFileName), wal.WithSyncEvery(syncEvery))
	if err != nil {
		return nil, err
	}
	// Replay the tail: records at or past the manifest's high-water mark
	// are updates that were acknowledged but never sealed into an epoch.
	// (A flush always consumes the whole pending buffer, so no record
	// straddles the mark.)
	hwm := m.nextOpSeq
	for _, rec := range recs {
		if rec.Seq < hwm {
			continue
		}
		m.bufferRecord(rec)
	}
	m.log = log
	m.removeOrphanEpochs()
	mRecovery.Record(time.Since(openStart))
	m.observeState()
	return m, nil
}

// loadEpoch reopens one persisted epoch: the sealed index from its file
// (mapped and, on sorted, copied once), the per-epoch client re-derived
// from the manager's master key. The manager closes the index when
// consolidation retires the epoch, or on Close.
func (m *Manager) loadEpoch(ent manifestEpoch) (*epoch, error) {
	index, err := core.OpenIndexFile(filepath.Join(m.dir, ent.File), m.opts.Storage)
	if err != nil {
		return nil, fmt.Errorf("lsm: epoch %d: %w", ent.Seq, err)
	}
	opts := m.opts
	key := prf.DeriveN(m.master, "epoch", ent.Seq)
	opts.MasterKey = key[:]
	client, err := core.NewClient(m.kind, m.dom, opts)
	if err != nil {
		return nil, err
	}
	return &epoch{seq: ent.Seq, client: client, index: index, persisted: true}, nil
}

// commit makes the manager's in-memory epoch set durable: unsealed
// epochs are serialized and fsynced, the manifest swings atomically (the
// commit point), the WAL resets, and epoch files consolidation dropped
// are unlinked. Crash-safe at every step boundary.
func (m *Manager) commit() error {
	for _, lvl := range m.levels {
		for _, e := range lvl {
			if e.persisted {
				continue
			}
			blob, err := e.index.MarshalBinary()
			if err != nil {
				return err
			}
			if err := WriteFileDurable(m.dir, epochFileName(e.seq), blob); err != nil {
				return err
			}
			e.persisted = true
		}
	}
	if err := m.writeManifest(m.nextOpSeq); err != nil {
		return err
	}
	// Past the commit point: the WAL's records are sealed in epochs the
	// manifest now references, and any epoch file the manifest no longer
	// references is dead.
	if err := m.log.Reset(); err != nil {
		return err
	}
	m.dirty = false
	m.removeOrphanEpochs()
	return nil
}

// writeManifest atomically writes the manifest describing the current
// epoch set, with the given WAL high-water mark.
func (m *Manager) writeManifest(highWater uint64) error {
	man := manifest{
		Version:    1,
		Kind:       m.kind.String(),
		DomainBits: m.dom.Bits,
		Step:       m.step,
		NextEpoch:  m.nextEpoch,
		HighWater:  highWater,
		Levels:     make([][]manifestEpoch, len(m.levels)),
	}
	for i, lvl := range m.levels {
		man.Levels[i] = make([]manifestEpoch, 0, len(lvl))
		for _, e := range lvl {
			man.Levels[i] = append(man.Levels[i], manifestEpoch{Seq: e.seq, File: epochFileName(e.seq)})
		}
	}
	blob, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	return WriteFileDurable(m.dir, ManifestFileName, blob)
}

// removeOrphanEpochs unlinks epoch files the active set no longer
// references: leftovers of consolidations and of commits that crashed
// between writing epoch files and the manifest rename.
func (m *Manager) removeOrphanEpochs() {
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		return
	}
	active := make(map[string]bool)
	for _, lvl := range m.levels {
		for _, e := range lvl {
			active[epochFileName(e.seq)] = true
		}
	}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || active[name] {
			continue
		}
		if strings.HasPrefix(name, "epoch-") && strings.HasSuffix(name, ".idx") {
			os.Remove(filepath.Join(m.dir, name))
		}
	}
}

// Sync forces every logged update to stable storage regardless of the
// fsync policy — the ordering barrier cross-shard modifications use.
func (m *Manager) Sync() error {
	if m.log == nil {
		return nil
	}
	return m.log.Sync()
}

// WALSize returns the write-ahead log's current size in bytes; 0 for a
// memory-only manager.
func (m *Manager) WALSize() (int64, error) {
	if m.log == nil {
		return 0, nil
	}
	return m.log.Size()
}

// Close syncs and closes the write-ahead log and releases every epoch's
// index file. Pending (unflushed) updates are NOT flushed — they are
// already durable in the WAL, and exact recovery reproduces them as
// pending; call Flush first to seal them into an epoch instead. Close is
// a no-op for memory-only managers.
func (m *Manager) Close() error {
	if m.log == nil {
		return nil
	}
	err := m.log.Close()
	m.log = nil
	for _, lvl := range m.levels {
		closeEpochs(lvl)
	}
	return err
}

// Abandon drops the WAL file descriptor without syncing — the SIGKILL
// simulation recovery tests use: on-disk state stays exactly as a
// crash would leave it, and the WAL's advisory lock is released so the
// directory can be reopened in-process.
func (m *Manager) Abandon() {
	if m.log == nil {
		return
	}
	m.log.Abandon()
	m.log = nil
}

// WriteFileDurable writes name under dir crash-safely: the bytes are
// written and fsynced to a temporary file, renamed into place, and the
// directory entry fsynced, so a crash leaves either the old file or the
// new one — never a torn mix. The manifest commit uses it, and so do
// the key files the rsse layer keeps beside a durable directory (a key
// that evaporates in a power failure orphans every sealed epoch).
func WriteFileDurable(dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		os.Remove(tmp)
		return err
	}
	return wal.SyncDir(dir)
}
