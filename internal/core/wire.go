package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"rsse/internal/cover"
	"rsse/internal/prf"
	"rsse/internal/sse"
	"rsse/internal/storage"
)

// ErrCorruptIndex is returned when a serialized index fails to parse.
var ErrCorruptIndex = errors.New("core: corrupt serialized index")

// ErrV1NoSuite is returned by MarshalBinaryV1 for an index built with a
// PRF suite other than 0: the v1 format has no byte to record it, and a
// v1 reader would search the index under the wrong PRF and find nothing.
var ErrV1NoSuite = errors.New("core: index wire v1 cannot record a PRF suite other than 0")

// Index wire versions. Both share a 12-byte prefix — version(1) kind(1)
// domBits(1) posBits(1) n(8) — so PeekMeta works on either without
// touching the body.
//
// v1 is the original record-stream format: every section is a stream of
// per-record fields the loader must walk and copy one by one, so load
// cost is O(index size) regardless of engine.
//
// v2 is the segment-container format this package now writes: after the
// shared prefix (padded to 16 bytes), each section — primary SSE index,
// optional auxiliary index, tuple store — is an 8-aligned,
// length-prefixed blob whose interior is the checksummed storage-segment
// format. Sections can be sliced in place: loading onto the disk engine
// aliases the serialized bytes directly (zero per-record copies, O(1)
// parse work plus one sequential checksum pass), which is what lets a
// server mmap an index file and start answering queries immediately.
//
//	v2 layout: version(1)=2 kind(1) domBits(1) posBits(1) n(8)
//	           suite(1) pad(3)
//	           primaryLen(8) primary-section
//	           auxLen(8) aux-section            (auxLen 0 = no aux index)
//	           storeLen(8) store-segment
//
// Sections are padded by their writers to 8-byte multiples, keeping
// every length prefix and segment 8-aligned within the container. The
// store segment is a raw storage segment (8-byte big-endian id keys →
// tuple ciphertexts) and is the only section not padded — nothing
// follows it.
//
// suite is the PRF suite (prf.Suite) the index was built with. The byte
// was the first of four zero pad bytes before suites existed, so every
// earlier v2 blob reads as suite 0 — which is what it is — and a v1
// blob, which has no such byte, is suite 0 by definition. A value this
// build does not implement is ErrCorruptIndex.
const (
	indexWireV1 = 1
	indexWireV2 = 2
)

// MarshalBinary serializes the complete server-side state — SSE
// index(es) plus the encrypted tuple store — so the owner can ship it to
// the server (or the server can persist it). No key material is
// included. The output is the v2 segment-container format; readers of
// both this and all earlier releases' blobs are kept (see
// UnmarshalIndex).
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
	storeSeg, err := storage.EncodeSegment(x.store.cts)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, 16+24+len(primary)+len(aux)+len(storeSeg))
	out = append(out, indexWireV2, byte(x.kind), x.dom.Bits, x.posBits)
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

// MarshalBinaryV1 serializes the index in the legacy v1 record-stream
// format — for interoperability with readers that predate the segment
// container. New deployments should prefer MarshalBinary; an index of a
// PRF suite other than 0 has no v1 form (ErrV1NoSuite).
//
// Layout: version(1) kind(1) domBits(1) posBits(1) n(8)
// primaryLen(8) primary auxLen(8) aux storeCount(8) {id(8) ctLen(4) ct}*
func (x *Index) MarshalBinaryV1() ([]byte, error) {
	if x.suite != prf.SuiteSHA512 {
		return nil, fmt.Errorf("%w: index is %v", ErrV1NoSuite, x.suite)
	}
	primary, err := x.primary.MarshalBinary()
	if err != nil {
		return nil, err
	}
	var aux []byte
	if x.aux != nil {
		if aux, err = x.aux.MarshalBinary(); err != nil {
			return nil, err
		}
	}
	ids := x.store.IDs()
	out := make([]byte, 0, 28+len(primary)+len(aux)+x.store.Size())
	out = append(out, indexWireV1, byte(x.kind), x.dom.Bits, x.posBits)
	out = binary.BigEndian.AppendUint64(out, uint64(x.n))
	out = binary.BigEndian.AppendUint64(out, uint64(len(primary)))
	out = append(out, primary...)
	out = binary.BigEndian.AppendUint64(out, uint64(len(aux)))
	out = append(out, aux...)
	out = binary.BigEndian.AppendUint64(out, uint64(len(ids)))
	for _, id := range ids {
		ct, _ := x.store.Get(id)
		out = binary.BigEndian.AppendUint64(out, id)
		out = binary.BigEndian.AppendUint32(out, uint32(len(ct)))
		out = append(out, ct...)
	}
	return out, nil
}

// PeekMeta reads an index blob's public metadata from its fixed header
// — the first 12 bytes of a v1 blob, the first 16 of a v2 blob, which
// adds the suite — without parsing the body: cheap enough to run against
// a large directory of index files before deciding what to load.
func PeekMeta(data []byte) (IndexMeta, error) {
	if len(data) < 12 || data[0] == indexWireV2 && len(data) < 16 {
		return IndexMeta{}, fmt.Errorf("%w: short header", ErrCorruptIndex)
	}
	if data[0] != indexWireV1 && data[0] != indexWireV2 {
		return IndexMeta{}, fmt.Errorf("%w: bad version", ErrCorruptIndex)
	}
	if data[2] > cover.MaxBits {
		return IndexMeta{}, ErrCorruptIndex
	}
	meta := IndexMeta{
		Kind:       Kind(data[1]),
		DomainBits: data[2],
		PosBits:    data[3],
		N:          int(binary.BigEndian.Uint64(data[4:12])),
	}
	if data[0] == indexWireV2 {
		if meta.Suite = prf.Suite(data[12]); !meta.Suite.Valid() {
			return IndexMeta{}, fmt.Errorf("%w: unknown PRF suite %d", ErrCorruptIndex, data[12])
		}
	}
	return meta, nil
}

// UnmarshalIndex reconstructs an Index serialized with MarshalBinary (v2
// container) or MarshalBinaryV1 (legacy record stream), onto the default
// storage engine.
func UnmarshalIndex(data []byte) (*Index, error) {
	return UnmarshalIndexWith(data, nil)
}

// UnmarshalIndexWith reconstructs a serialized Index onto an explicit
// storage engine — servers load read-mostly indexes onto storage.Sorted
// for the flat, binary-searched layout, or storage.Disk to serve v2
// blobs in place with zero per-record copies. In the latter case the
// returned index aliases data, which must stay valid and unmodified for
// the index's lifetime (OpenIndexFile manages that pairing for files).
func UnmarshalIndexWith(data []byte, eng storage.Engine) (*Index, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty", ErrCorruptIndex)
	}
	switch data[0] {
	case indexWireV1:
		return unmarshalV1(data, eng)
	case indexWireV2:
		return unmarshalV2(data, eng)
	default:
		return nil, fmt.Errorf("%w: bad version", ErrCorruptIndex)
	}
}

// unmarshalV2 parses the segment-container format. All variable-length
// parts are sliced in place; whether the backends then alias those
// slices or rebuild onto resident structures is the engine's choice
// (storage.Load).
func unmarshalV2(data []byte, eng storage.Engine) (*Index, error) {
	r := wireReader{data: data}
	hdr, err := r.slice(16)
	if err != nil {
		return nil, ErrCorruptIndex
	}
	meta, err := PeekMeta(hdr)
	if err != nil {
		return nil, err
	}
	x := &Index{
		kind:    meta.Kind,
		dom:     cover.Domain{Bits: meta.DomainBits},
		posBits: meta.PosBits,
		n:       meta.N,
		suite:   meta.Suite,
		engine:  storage.OrDefault(eng).Name(),
	}
	primBlob, err := r.lenPrefixed()
	if err != nil {
		return nil, ErrCorruptIndex
	}
	if x.primary, err = sse.OpenSection(primBlob, eng, x.suite); err != nil {
		return nil, fmt.Errorf("%w: primary: %v", ErrCorruptIndex, err)
	}
	auxBlob, err := r.lenPrefixed()
	if err != nil {
		return nil, ErrCorruptIndex
	}
	if len(auxBlob) > 0 {
		if x.aux, err = sse.OpenSection(auxBlob, eng, x.suite); err != nil {
			return nil, fmt.Errorf("%w: aux: %v", ErrCorruptIndex, err)
		}
	}
	storeSeg, err := r.lenPrefixed()
	if err != nil {
		return nil, ErrCorruptIndex
	}
	storeN, storeKL, valueBytes, err := storage.SegmentStats(storeSeg)
	if err != nil || storeKL != storeKeyLen {
		return nil, fmt.Errorf("%w: store segment header", ErrCorruptIndex)
	}
	cts, err := storage.Load(storeSeg, eng)
	if err != nil {
		return nil, fmt.Errorf("%w: store: %v", ErrCorruptIndex, err)
	}
	x.store = &TupleStore{cts: cts, size: storeN*storeKeyLen + int(valueBytes)}
	if r.off != len(r.data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptIndex, len(r.data)-r.off)
	}
	if storage.OpensInPlace(eng) {
		x.retained = data
	}
	return x, nil
}

// unmarshalV1 parses the legacy record-stream format, rebuilding every
// record through the engine's Builder.
func unmarshalV1(data []byte, eng storage.Engine) (*Index, error) {
	r := wireReader{data: data}
	version, err := r.byte()
	if err != nil || version != indexWireV1 {
		return nil, fmt.Errorf("%w: bad version", ErrCorruptIndex)
	}
	kindB, err := r.byte()
	if err != nil {
		return nil, ErrCorruptIndex
	}
	domBits, err := r.byte()
	if err != nil || domBits > cover.MaxBits {
		return nil, ErrCorruptIndex
	}
	posBits, err := r.byte()
	if err != nil {
		return nil, ErrCorruptIndex
	}
	n, err := r.uint64()
	if err != nil {
		return nil, ErrCorruptIndex
	}
	x := &Index{
		kind:    Kind(kindB),
		dom:     cover.Domain{Bits: domBits},
		posBits: posBits,
		n:       int(n),
		engine:  storage.OrDefault(eng).Name(),
	}
	primBlob, err := r.lenPrefixed()
	if err != nil {
		return nil, ErrCorruptIndex
	}
	if x.primary, err = sse.Unmarshal(primBlob, eng); err != nil {
		return nil, fmt.Errorf("%w: primary: %v", ErrCorruptIndex, err)
	}
	auxBlob, err := r.lenPrefixed()
	if err != nil {
		return nil, ErrCorruptIndex
	}
	if len(auxBlob) > 0 {
		if x.aux, err = sse.Unmarshal(auxBlob, eng); err != nil {
			return nil, fmt.Errorf("%w: aux: %v", ErrCorruptIndex, err)
		}
	}
	count, err := r.uint64()
	if err != nil {
		return nil, ErrCorruptIndex
	}
	store := &TupleStore{}
	cts := storage.OrDefault(eng).NewBuilder(storeKeyLen, int(count))
	for i := uint64(0); i < count; i++ {
		id, err := r.uint64()
		if err != nil {
			return nil, ErrCorruptIndex
		}
		ctLen, err := r.uint32()
		if err != nil {
			return nil, ErrCorruptIndex
		}
		ct, err := r.slice(int(ctLen))
		if err != nil {
			return nil, ErrCorruptIndex
		}
		key := storeKey(id)
		if err := cts.Put(key[:], ct); err != nil {
			return nil, ErrCorruptIndex
		}
		store.size += 8 + len(ct)
	}
	if store.cts, err = cts.Seal(); err != nil {
		return nil, ErrCorruptIndex
	}
	if r.off != len(r.data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptIndex, len(r.data)-r.off)
	}
	x.store = store
	return x, nil
}

// OpenIndexFile maps (or, where mmap is unavailable, reads) an index
// file and reconstructs it onto eng. For v2 files on an in-place engine
// (storage.Disk) this is the lazy load path: the kernel maps the file,
// parsing touches only section headers plus one sequential checksum
// pass, and every dictionary answers queries straight from the mapping —
// open cost is effectively independent of how many records the index
// holds, and resident memory stays near zero until queries page data in.
// The returned index owns the mapping; call Close when done with it.
//
// Other engines (and v1 files) load exactly as UnmarshalIndexWith would,
// after which the file is released immediately.
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
	if x.retained != nil {
		// The index aliases the mapping: keep it open, hand over
		// ownership, and report the blob as file-backed rather than
		// heap-resident when the platform really mapped it.
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
	} else {
		m.Close()
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
// the underlying data — consumers either parse in place or hand slices
// to Builder.Put, which copies.
type wireReader struct {
	data []byte
	off  int
}

func (r *wireReader) byte() (byte, error) {
	if r.off+1 > len(r.data) {
		return 0, ErrCorruptIndex
	}
	b := r.data[r.off]
	r.off++
	return b, nil
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

// slice returns the next n bytes without copying.
func (r *wireReader) slice(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.data) {
		return nil, ErrCorruptIndex
	}
	out := r.data[r.off : r.off+n]
	r.off += n
	return out, nil
}

// bytes returns a copy of the next n bytes — for consumers that retain
// the result beyond the underlying buffer's lifetime.
func (r *wireReader) bytes(n int) ([]byte, error) {
	b, err := r.slice(n)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), b...), nil
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

// lenPrefixed32 reads a u32-length-prefixed slice (protocol batch frames).
func (r *wireReader) lenPrefixed32() ([]byte, error) {
	n, err := r.uint32()
	if err != nil {
		return nil, err
	}
	if uint64(n) > uint64(len(r.data)-r.off) {
		return nil, ErrCorruptIndex
	}
	return r.slice(int(n))
}
