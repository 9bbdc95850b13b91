// Package specstore is the persistent tier behind the spectrald
// spectrum cache (internal/speccache): a pluggable content-addressed
// store of encoded eigendecompositions, so restarts stop recomputing
// identical O(d·n²) eigensolves. The in-memory LRU stays the hot tier;
// this package is the durable tier every solved spectrum is written
// through to, and that LRU misses repopulate from.
//
// Entries are opaque byte payloads (the root package's EncodeSpectrum
// format) keyed by (netlist fingerprint, clique model) with a recorded
// eigenpair capacity: a stored entry with Pairs >= p serves any request
// for p pairs, mirroring the LRU's prefix-reuse rule. Put only ever
// grows a key's capacity — overwriting with fewer pairs is a no-op —
// so concurrent writers cannot regress a key.
//
// One backend ships here: Disk (CRC-framed files, atomic temp-file +
// rename writes, fsync, corrupt-entry quarantine). Every backend must
// pass the conformance suite in conformance_test.go; new backends
// (object stores) inherit the same gate.
package specstore

// Key identifies one stored decomposition family: netlist content hash
// plus clique model name. speccache.Key is an alias of it.
type Key struct {
	Hash  string
	Model string
}

// Entry is one stored value: the encoded spectrum bytes plus the
// eigenpair capacity they hold.
type Entry struct {
	// Pairs is the entry's reuse capacity (eigenpairs, trivial pair
	// included).
	Pairs int
	// Data is the encoded spectrum (spectral.EncodeSpectrum).
	Data []byte
}

// Stats reports a store's effectiveness and health counters.
type Stats struct {
	Hits, Misses uint64
	// Puts counts accepted writes; SkippedPuts counts writes refused
	// because the stored capacity already covered the new entry.
	Puts, SkippedPuts uint64
	// Quarantined counts corrupt entries moved aside (disk backend).
	Quarantined uint64
	// Errors counts I/O failures that neither served nor stored data.
	Errors uint64
	// Entries is the current entry count.
	Entries int
}

// Store is a persistent spectrum tier. Implementations must be safe for
// concurrent use and must never return data that fails integrity
// checks — a corrupt entry is a miss (and, where possible, is
// quarantined), never a wrong answer.
type Store interface {
	// Get returns the entry for key. ok is false when the key is absent
	// (or its entry was corrupt); err reports I/O failures.
	Get(key Key) (e Entry, ok bool, err error)
	// Put stores the entry for key, keeping whichever of the existing
	// and new entries has the larger capacity.
	Put(key Key, e Entry) error
	// Len returns the number of stored entries.
	Len() int
	// Stats returns a snapshot of the store's counters.
	Stats() Stats
	// Close releases backend resources. The store is unusable after.
	Close() error
}
