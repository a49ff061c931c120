package storage

import (
	"fmt"
	"os"
)

// MappedFile is a read-only view of a whole file, memory-mapped where
// the platform supports it and read into memory otherwise. Backends
// opened over Data with OpenSegment alias the mapping directly, so Close
// must not be called until every such backend is out of use.
type MappedFile struct {
	// Data is the file's content. Do not modify.
	Data []byte
	// mapped reports whether Data is a memory mapping (true) or a heap
	// copy (false).
	mapped bool
	closed bool
}

// MapFile opens path read-only: memory-mapped on platforms with mmap
// support, fully read as a portable fallback.
func MapFile(path string) (*MappedFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := info.Size()
	if size == 0 {
		return &MappedFile{Data: []byte{}}, nil
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("storage: %s: %d bytes exceeds the address space", path, size)
	}
	data, mapped, err := mapFileBytes(f, int(size))
	if err != nil {
		return nil, fmt.Errorf("storage: map %s: %w", path, err)
	}
	return &MappedFile{Data: data, mapped: mapped}, nil
}

// Mapped reports whether the file is served by a memory mapping (its
// pages live in the page cache, not the Go heap).
func (m *MappedFile) Mapped() bool { return m.mapped }

// Prefetch asks the OS to page the whole mapping in ahead of use
// (madvise WILLNEED): one sequential streaming read now instead of a
// random page fault per future probe. Best-effort and asynchronous; a
// no-op for heap-backed files (already resident) and on platforms
// without madvise.
func (m *MappedFile) Prefetch() {
	if m.mapped && !m.closed {
		prefetchBytes(m.Data)
	}
}

// AdviseRandom declares the mapping's access pattern random (madvise
// RANDOM), switching off sequential readahead around faults. Right for
// serving: index probes are label-keyed point lookups, so readahead
// drags in neighbours nobody will touch. Best-effort no-op where
// unsupported.
func (m *MappedFile) AdviseRandom() {
	if m.mapped && !m.closed {
		adviseRandomBytes(m.Data)
	}
}

// Close releases the mapping. Idempotent. Every backend aliasing Data
// becomes invalid — callers own that ordering.
func (m *MappedFile) Close() error {
	if m.closed {
		return nil
	}
	m.closed = true
	data := m.Data
	m.Data = nil
	if !m.mapped {
		return nil
	}
	return unmapBytes(data)
}
