package storage

// Disk is the disk-backed engine. It builds exactly as the Sorted engine
// does — both seal records into a segment (segment.go) and serve it with
// one Backend and one Get — and differs only in how an index loads: a
// loader serves a Disk index's segments in place over the caller's
// (typically memory-mapped) bytes, in O(checksum) time with zero
// per-record work, where a Sorted index first copies the blob once.
type Disk struct{}

// Name implements Engine.
func (Disk) Name() string { return "disk" }

// NewBuilder implements Engine with the Sorted engine's builder.
func (Disk) NewBuilder(keyLen, capacityHint int) Builder {
	return newSortedBuilder(keyLen, capacityHint)
}
