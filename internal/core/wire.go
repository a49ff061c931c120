package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"rsse/internal/cover"
	"rsse/internal/prf"
	"rsse/internal/sse"
	"rsse/internal/storage"
)

// ErrCorruptIndex is returned when a serialized index fails to parse.
var ErrCorruptIndex = errors.New("core: corrupt serialized index")

// The index wire format is the segment container, version 2: after a
// 16-byte header, each section — primary SSE index, auxiliary index
// (Logarithmic-SRC-i's, and only its), tuple store — is an 8-aligned,
// length-prefixed blob whose interior is the checksummed storage-segment
// format. Sections can be sliced in place: loading onto the disk engine
// aliases the serialized bytes directly (zero per-record copies, O(1)
// parse work plus one sequential checksum pass), which is what lets a
// server mmap an index file and start answering queries immediately.
// Version 1, the record stream of the first release, is no longer read:
// re-save such a file with a release up to PR 24 (UnmarshalIndex, then
// MarshalBinary) or rebuild it.
//
//	layout: version(1)=2 kind(1) domBits(1) posBits(1) n(8)
//	        suite(1) pad(3)
//	        primaryLen(8) primary-section
//	        auxLen(8) aux-section            (auxLen 0 = no aux index)
//	        storeLen(8) store-segment
//
// Sections are padded by their writers to 8-byte multiples, keeping
// every length prefix and segment 8-aligned within the container. The
// store segment is a raw storage segment (8-byte big-endian id keys →
// tuple ciphertexts) and is the only section not padded — nothing
// follows it.
//
// suite is the PRF suite (prf.Suite) the index was built with. The byte
// was the first of four zero pad bytes before suites existed, so every
// earlier blob reads as suite 0 — which is what it is. A value this
// build does not implement is ErrCorruptIndex.
const indexWireVersion = 2

// MarshalBinary serializes the complete server-side state — SSE
// index(es) plus the encrypted tuple store — so the owner can ship it to
// the server (or the server can persist it). No key material is
// included.
func (x *Index) MarshalBinary() ([]byte, error) {
	primary, err := sse.MarshalSection(x.primary)
	if err != nil {
		return nil, err
	}
	var aux []byte
	if x.aux != nil {
		if aux, err = sse.MarshalSection(x.aux); err != nil {
			return nil, err
		}
	}
	storeSeg := x.store.cts.Segment()
	out := make([]byte, 0, 16+24+len(primary)+len(aux)+len(storeSeg))
	out = append(out, indexWireVersion, byte(x.kind), x.dom.Bits, x.posBits)
	out = binary.BigEndian.AppendUint64(out, uint64(x.n))
	out = append(out, byte(x.suite), 0, 0, 0) // pad to 16
	out = binary.BigEndian.AppendUint64(out, uint64(len(primary)))
	out = append(out, primary...)
	out = binary.BigEndian.AppendUint64(out, uint64(len(aux)))
	out = append(out, aux...)
	out = binary.BigEndian.AppendUint64(out, uint64(len(storeSeg)))
	out = append(out, storeSeg...)
	return out, nil
}

// PeekMeta reads an index blob's public metadata from its 16-byte
// header without parsing the body: cheap enough to run against a large
// directory of index files before deciding what to load.
func PeekMeta(data []byte) (IndexMeta, error) {
	if len(data) < 16 {
		return IndexMeta{}, fmt.Errorf("%w: short header", ErrCorruptIndex)
	}
	if data[0] != indexWireVersion {
		return IndexMeta{}, fmt.Errorf("%w: wire version %d, this build reads only %d", ErrCorruptIndex, data[0], indexWireVersion)
	}
	if !slices.Contains(Kinds(), Kind(data[1])) {
		return IndexMeta{}, fmt.Errorf("%w: unknown kind %d", ErrCorruptIndex, data[1])
	}
	if data[2] > cover.MaxBits {
		return IndexMeta{}, ErrCorruptIndex
	}
	meta := IndexMeta{
		Kind:       Kind(data[1]),
		DomainBits: data[2],
		PosBits:    data[3],
		N:          int(binary.BigEndian.Uint64(data[4:12])),
		Suite:      prf.Suite(data[12]),
	}
	if !meta.Suite.Valid() {
		return IndexMeta{}, fmt.Errorf("%w: unknown PRF suite %d", ErrCorruptIndex, data[12])
	}
	return meta, nil
}

// UnmarshalIndex reconstructs an Index serialized with MarshalBinary
// onto the default storage engine.
func UnmarshalIndex(data []byte) (*Index, error) {
	return UnmarshalIndexWith(data, nil)
}

// UnmarshalIndexWith reconstructs a serialized Index onto an explicit
// storage engine: nil (the default, storage.Sorted), storage.Sorted or
// storage.Disk. Every section is served in place; the engine decides
// only whose bytes. On storage.Disk the returned index aliases data,
// which must stay valid and unmodified for the index's lifetime
// (OpenIndexFile manages that pairing for files); on storage.Sorted it
// serves a private copy of data, made once here, and data may be reused
// at once. Any other engine is refused: a load opens the blob's own
// segments, so no engine's backend would serve them.
func UnmarshalIndexWith(data []byte, eng storage.Engine) (*Index, error) {
	switch eng.(type) {
	case nil, storage.Sorted, storage.Disk:
	default:
		return nil, fmt.Errorf("core: cannot load onto storage engine %q: a load serves sorted or disk segments only", eng.Name())
	}
	meta, err := PeekMeta(data)
	if err != nil {
		return nil, err
	}
	if _, inPlace := eng.(storage.Disk); !inPlace {
		data = bytes.Clone(data)
	}
	r := wireReader{data: data, off: 16}
	x := &Index{
		kind:     meta.Kind,
		dom:      cover.Domain{Bits: meta.DomainBits},
		posBits:  meta.PosBits,
		n:        meta.N,
		suite:    meta.Suite,
		engine:   storage.OrDefault(eng).Name(),
		retained: data,
	}
	primBlob, err := r.lenPrefixed()
	if err != nil {
		return nil, ErrCorruptIndex
	}
	if x.primary, err = sse.OpenSection(primBlob, x.suite); err != nil {
		return nil, fmt.Errorf("%w: primary: %v", ErrCorruptIndex, err)
	}
	auxBlob, err := r.lenPrefixed()
	if err != nil {
		return nil, ErrCorruptIndex
	}
	// Only SRC-i has an aux index, and its first round searches it.
	if (len(auxBlob) > 0) != (x.kind == LogarithmicSRCi) {
		return nil, fmt.Errorf("%w: %v with %d aux section bytes", ErrCorruptIndex, x.kind, len(auxBlob))
	}
	if len(auxBlob) > 0 {
		if x.aux, err = sse.OpenSection(auxBlob, x.suite); err != nil {
			return nil, fmt.Errorf("%w: aux: %v", ErrCorruptIndex, err)
		}
	}
	storeSeg, err := r.lenPrefixed()
	if err != nil {
		return nil, ErrCorruptIndex
	}
	cts, err := storage.OpenSegment(storeSeg)
	if err != nil {
		return nil, fmt.Errorf("%w: store: %v", ErrCorruptIndex, err)
	}
	if cts.KeyLen() != storeKeyLen {
		return nil, fmt.Errorf("%w: store keys of %d bytes", ErrCorruptIndex, cts.KeyLen())
	}
	// The store's size, an id and a ciphertext per tuple.
	size := 0
	cts.Iterate(func(_, ct []byte) bool {
		size += storeKeyLen + len(ct)
		return true
	})
	x.store = &TupleStore{cts: cts, size: size}
	if r.off != len(r.data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptIndex, len(r.data)-r.off)
	}
	return x, nil
}

// OpenIndexFile maps (or, where mmap is unavailable, reads) an index
// file and reconstructs it onto eng. On storage.Disk this is the lazy
// load path: the kernel maps the file, parsing touches only section
// headers plus one sequential checksum pass, and every dictionary
// answers queries straight from the mapping — open cost is effectively
// independent of how many records the index holds, and resident memory
// stays near zero until queries page data in. The returned index owns
// the mapping; call Close when done with it.
//
// Other engines load exactly as UnmarshalIndexWith would — one copy of
// the file — after which the file is released immediately.
func OpenIndexFile(path string, eng storage.Engine) (*Index, error) {
	m, err := storage.MapFile(path)
	if err != nil {
		return nil, err
	}
	x, err := UnmarshalIndexWith(m.Data, eng)
	if err != nil {
		m.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	x.fileBytes = int64(len(m.Data))
	if &x.retained[0] != &m.Data[0] {
		// The index serves its own copy.
		m.Close()
		return x, nil
	}
	// The index aliases the mapping: keep it open, hand over ownership,
	// and report the blob as file-backed rather than heap-resident when
	// the platform really mapped it.
	x.closer = m
	x.mapped = m.Mapped()
	if x.mapped {
		x.retained = nil
		// Serving probes are label-keyed point lookups: turn off the
		// kernel's sequential readahead so each fault pulls one page,
		// not a speculative neighbourhood. Prefetch() reverses this
		// for deployments that want the whole index warm.
		m.AdviseRandom()
	}
	return x, nil
}

// Prefetch asks the OS to page a mapped, serve-in-place index into the
// page cache ahead of traffic (madvise WILLNEED): the file streams in
// at sequential bandwidth now instead of faulting one cold page per
// early query. Best-effort and asynchronous; a no-op for heap-loaded
// indexes, which are already resident.
func (x *Index) Prefetch() {
	if x.mapped {
		if m, ok := x.closer.(*storage.MappedFile); ok {
			m.Prefetch()
		}
	}
}

// wireReader is a bounds-checked cursor over a byte slice. Reads alias
// the underlying data, which the loaded sections serve in place.
type wireReader struct {
	data []byte
	off  int
}

func (r *wireReader) uint32() (uint32, error) {
	if r.off+4 > len(r.data) {
		return 0, ErrCorruptIndex
	}
	v := binary.BigEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v, nil
}

func (r *wireReader) uint64() (uint64, error) {
	if r.off+8 > len(r.data) {
		return 0, ErrCorruptIndex
	}
	v := binary.BigEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v, nil
}

// slice returns the next n bytes without copying, with cap == len: an
// append to the result copies instead of writing over what follows.
func (r *wireReader) slice(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.data) {
		return nil, ErrCorruptIndex
	}
	out := r.data[r.off : r.off+n : r.off+n]
	r.off += n
	return out, nil
}

func (r *wireReader) lenPrefixed() ([]byte, error) {
	n, err := r.uint64()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.data)-r.off) {
		return nil, ErrCorruptIndex
	}
	return r.slice(int(n))
}
