package unixlib

import (
	"errors"
	"fmt"

	"histar/internal/kernel"
	"histar/internal/label"
	"histar/internal/store"
)

// Persistence bridge to the single-level store.  When a store is attached,
// file and directory segments are store objects keyed by kernel object ID;
// a write only marks the object, and the store copies the segment in
// (through Boot's trusted kernel read) when it needs the bytes.  So the
// durability semantics of the paper apply: asynchronous
// writes reach disk only at the next checkpoint, per-file fsync commits one
// object through the write-ahead log, and directory fsync (or an explicit
// group sync) checkpoints the entire system state.

// storeErr maps a store failure to EIO, keeping the store's error in the
// chain.
func storeErr(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrIO, err)
}

// persistLabel records an object's information-flow label in the store.  It
// is called once, where the object is created and its label is already in
// hand, so the write paths stay free of extra kernel calls.  The label
// travels with the object so a restored system can rebuild its canonical
// form (and fingerprint) without consulting the kernel.
func (sys *System) persistLabel(id kernel.ID, lbl label.Label) error {
	if sys.Persist == nil {
		return nil
	}
	return storeErr(sys.Persist.SetLabel(uint64(id), lbl))
}

// markDirty records that a segment's contents changed; no bytes move.
func (sys *System) markDirty(id kernel.ID) error {
	if sys.Persist == nil {
		return nil
	}
	return storeErr(sys.Persist.Mark(uint64(id)))
}

// persistDelete records an object's deletion.
func (sys *System) persistDelete(id kernel.ID) error {
	if sys.Persist == nil {
		return nil
	}
	return storeErr(sys.Persist.Delete(uint64(id)))
}

// pageInFile models HiStar's whole-segment paging: the prototype "does not
// support paging in of partial segments, so the entire file segment is paged
// in when the file is first accessed" (Section 7.1).  Reading any byte of an
// uncached file costs a full-object read from the store.
//
// Most store errors are ignored (the contents authoritative for the
// simulation live in the kernel segment; the read only drives the latency
// model) — but a detected-corruption error is real damage a real kernel
// would refuse to page in, so it is surfaced as kernel.ErrCorrupt and
// reaches the caller as EIO.
func (sys *System) pageInFile(file kernel.CEnt) error {
	if sys.Persist == nil {
		return nil
	}
	if sys.Persist.Cached(uint64(file.Object)) {
		return nil
	}
	_, err := sys.Persist.Get(uint64(file.Object))
	if err != nil && (errors.Is(err, store.ErrCorrupt) || errors.Is(err, store.ErrQuarantined)) {
		return fmt.Errorf("%w: paging in object %d: %v", kernel.ErrCorrupt, file.Object, err)
	}
	return nil
}

// SyncWholeSystem checkpoints the single-level store: every dirty object is
// written to its home location and the metadata trees and superblock are
// updated once.
func (sys *System) SyncWholeSystem() error {
	if sys.Persist == nil {
		return nil
	}
	return sys.Persist.Checkpoint()
}

// EvictFileCache drops clean objects from the store's cache so subsequent
// reads hit the simulated disk (benchmark plumbing for the uncached phases).
func (sys *System) EvictFileCache() {
	if sys.Persist != nil {
		sys.Persist.EvictCache()
	}
}
