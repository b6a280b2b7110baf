package store

import (
	"sync"
	"sync/atomic"

	"histar/internal/btree"
	"histar/internal/label"
)

// objEntry is the in-memory state of one object: cached contents, dirty and
// dead flags, and the recorded label.  All fields are guarded by mu, except
// that holders of the store's ckptMu in write mode (Checkpoint) and
// single-threaded construction (Format, Open) access them directly.
// Contents are copy-on-write: data is replaced wholesale, never mutated, so
// a sealed group-commit record may keep aliasing a superseded slice.
type objEntry struct {
	mu     sync.Mutex
	data   []byte
	cached bool // contents resident (the "page cache")
	dirty  bool // modified since the last checkpoint seal
	dead   bool // deleted since the last checkpoint seal
	// marked: the source holds newer contents than data (see Mark); a
	// marked entry is always dirty.
	marked bool
	lbl    label.Label
	hasLbl bool
	// quar marks an object whose home-extent contents failed checksum
	// verification: accesses that would read the damaged extent return
	// ErrQuarantined instead of corrupt bytes, until a Put/Delete replaces
	// the contents.  The flag never blocks a resident (cached) copy.
	quar bool
	// ckpt marks an entry sealed into the running incremental checkpoint:
	// the seal cleared dirty, so until the checkpoint body writes the data
	// to its new home extent, this in-memory copy is the only one — the
	// flag keeps EvictCache from dropping it and scrub from judging the
	// object by an extent the checkpoint is about to supersede.  Cleared by
	// the body after relocation, or restored to dirty if the body fails.
	ckpt bool
}

// storeShard is one shard of the object-entry table, selected by object-ID
// bits.  mu guards the id→entry map and this shard's slice of the label
// fingerprint index ((fingerprint, id) pairs whose id belongs to the shard).
// mu is never held while an entry lock is acquired; entry locks may nest a
// shard lock inside them (label-index updates).
type storeShard struct {
	mu         sync.RWMutex
	objs       map[uint64]*objEntry
	labelIndex *btree.Tree
	// ops counts shard selections, for the occupancy/contention stats the
	// benchmarks print.
	ops atomic.Uint64
	_   [32]byte // keep adjacent shards off one cache line
}

func (s *Store) shardOf(id uint64) *storeShard {
	sh := &s.shards[id&s.shardMask]
	sh.ops.Add(1)
	return sh
}

// lookup returns the entry for id, or nil.  Entry pointers stay valid while
// the caller holds ckptMu in read mode (only Checkpoint removes entries).
func (sh *storeShard) lookup(id uint64) *objEntry {
	sh.mu.RLock()
	e := sh.objs[id]
	sh.mu.RUnlock()
	return e
}

// getOrCreate returns the entry for id, inserting a fresh one if absent.
func (sh *storeShard) getOrCreate(id uint64) *objEntry {
	if e := sh.lookup(id); e != nil {
		return e
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.objs[id]; e != nil {
		return e
	}
	e := &objEntry{}
	sh.objs[id] = e
	return e
}

// shardEntry pairs an entry with its id for lock-free iteration after a
// snapshot.
type shardEntry struct {
	id    uint64
	entry *objEntry
}

// snapshot copies the shard's (id, entry) pairs under the shard read lock so
// callers can lock entries afterwards without holding mu (which would invert
// the entry→shard lock order).
func (sh *storeShard) snapshot() []shardEntry {
	sh.mu.RLock()
	out := make([]shardEntry, 0, len(sh.objs))
	for id, e := range sh.objs {
		out = append(out, shardEntry{id: id, entry: e})
	}
	sh.mu.RUnlock()
	return out
}

// setLabel records a label and keeps the shard's fingerprint-index slice in
// step.  The caller holds e.mu (or ckptMu exclusively / single-threaded
// init); the shard lock is taken inside, per the lock order.
func (s *Store) setLabel(sh *storeShard, id uint64, e *objEntry, lbl label.Label) {
	sh.mu.Lock()
	if e.hasLbl {
		sh.labelIndex.Delete(btree.K2(uint64(e.lbl.Fingerprint()), id))
	}
	sh.labelIndex.Put(btree.K2(uint64(lbl.Fingerprint()), id), 0)
	sh.mu.Unlock()
	e.lbl, e.hasLbl = lbl, true
}

// clearLabel drops an object's label and its index entry; locking as for
// setLabel.
func (s *Store) clearLabel(sh *storeShard, id uint64, e *objEntry) {
	if !e.hasLbl {
		return
	}
	sh.mu.Lock()
	sh.labelIndex.Delete(btree.K2(uint64(e.lbl.Fingerprint()), id))
	sh.mu.Unlock()
	e.lbl, e.hasLbl = label.Label{}, false
}

// ShardStat describes one shard of the object cache.
type ShardStat struct {
	// Objects is the number of resident entries, Labeled the number with a
	// recorded label, and Ops the cumulative shard selections — together the
	// occupancy/contention picture the benchmarks print.
	Objects int
	Labeled int
	Ops     uint64
}

// ShardStats returns a per-shard snapshot of the object cache.
func (s *Store) ShardStats() []ShardStat {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	out := make([]ShardStat, len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		out[i] = ShardStat{
			Objects: len(sh.objs),
			Labeled: sh.labelIndex.Len(),
			Ops:     sh.ops.Load(),
		}
		sh.mu.RUnlock()
	}
	return out
}
