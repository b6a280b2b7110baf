// Package store implements the HiStar single-level store (Sections 3 and 4):
// on bootup the entire system state is restored from the most recent on-disk
// snapshot, and all kernel objects are periodically checkpointed to disk.
// The layout follows the paper's description, inspired by XFS: a B+-tree
// maps object IDs to their location on disk, two more B+-trees maintain the
// free-extent list (indexed by size, for allocation, and by location, for
// coalescing), and a per-shard fourth B+-tree keys object IDs by their
// label's fingerprint so "every object tainted by category c" scans never
// touch a serialized label.  Write-ahead logging provides atomicity and
// crash consistency, and disk space allocation is delayed until an object is
// written to disk, making it easier to allocate contiguous extents.
//
// # On-disk layout
//
// The disk is divided into four fixed regions followed by the data region:
//
//	[0, 4096)                       superblock (two checksummed copies)
//	[4096, 4096+logSize)            write-ahead log (see package wal)
//	[.., .. + metaSize)             metadata area 0
//	[.., .. + metaSize)             metadata area 1
//	[.., disk size)                 data region: segments + dedicated extents
//
// The superblock sector holds two identical 64-byte copies, at offsets 0
// and 512, each independently protected by a CRC32C over its first 56
// bytes.  A copy's fields are little-endian u64s: the magic "HIST", which
// metadata area the current snapshot lives in, the snapshot's byte length,
// the log region size, the metadata area size, the format version
// (currently 2), and the checkpoint epoch; the CRC32C sits in the final
// u32.  Open uses whichever copy verifies (preferring the higher epoch if
// both do), so a single rotted sector never loses the root of the store.
//
// Each metadata area starts with a 48-byte header — magic "HMET", version
// (currently 4), checkpoint epoch, payload length, section count, and a
// CRC32C over the header itself — followed by tagged sections, each framed
// as [tag u64] [length u64] [CRC32C u64] [payload]: the object map (id,
// extent offset, size, contents-CRC quads — the contents CRC is what
// read-time and scrub verification of home extents check against, stored
// with bit 32 set); the free-extent list (offset, size); object labels
// (id, canonical label.AppendBinary bytes); the label fingerprint index
// (fingerprint, id); the segment table (base, size, used triples
// describing the append-only data segments — per-segment live counts are
// derived from the object map at open); and
// the bundle table ([count], then per bundle [lineage][bodyLen][body],
// where the body is the bundle name, capture epoch, and per-object
// id/offset/size/CRC/label records — see bundle.go for the codec).
// Checkpoints serialize into the area the superblock does NOT reference,
// flush, then rewrite both superblock copies with the bumped epoch, so a
// crash mid-checkpoint always leaves one intact, referenced snapshot.
//
// This is the only on-disk format: a superblock copy or metadata area
// naming any other version fails verification like any other damage.  See
// doc.go for the full integrity reference: the degradation ladder Open
// walks when verification fails, and the quarantine semantics for damaged
// object extents.
//
// # Snapshot bundles and O(metadata) clones
//
// A snapshot bundle (bundle.go) captures a set of committed objects by
// reference: their home extents, contents CRCs, and canonical labels,
// registered under a deterministic lineage ID (an FNV-1a hash of the
// bundle name and each object's identity/size/CRC/label — content, not
// physical layout, so recapturing identical content is idempotent).
// CloneObject materializes a bundle member under a fresh object ID in
// O(metadata): the clone's object-map entry aliases the captured extent,
// and the first rewrite relocates it through the ordinary dirty path
// (copy-on-write at checkpoint granularity).  The refcount invariants:
// extRefs counts referents per shared extent (object-map aliases plus
// bundle pins; absent means one ordinary owner), vacateExtent decrements
// before freeing, so neither the segment cleaner nor the deferred-free
// path can reclaim bytes reachable from a live bundle or clone — and
// segments holding bundle-pinned extents are immovable (bundles record
// extents by offset), so the cleaner skips them outright.  Durability:
// the bundle rides a WAL record committed before SnapshotBundle returns
// and enters the metadata snapshot at the next checkpoint; checkpoint
// finish retains every WAL generation back to the oldest live bundle's
// capture epoch until two committed snapshots contain that bundle.  A
// contents-CRC failure on a shared extent propagates to every referent:
// aliasing objects are quarantined and the bundle entries marked rotted,
// so later clones fail with a typed QuarantineError instead of silently
// fanning damaged bytes out.
//
// # Data region: segments
//
// Checkpoint relocations append object contents into fixed-size append-only
// segments (Options.SegmentSize, default 1 MB) at 512-byte granularity, so
// one checkpoint's home writes are a few sequential streams rather than one
// random extent per object; objects larger than half a segment keep the
// original dedicated-extent path.  Space behind deleted or superseded
// objects is reclaimed by a cleaner that runs inside the checkpoint body:
// fully dead segments are freed without copying, and segments at least half
// dead have their live objects appended out so the extent can be reclaimed.
// Segments are never overwritten in place — appends land only beyond the
// committed high-water mark, and vacated extents return to the free trees
// only after every data write of the checkpoint has issued, and leave them
// again if its snapshot write fails — preserving the copy-on-write
// discipline that makes a crash at any write boundary leave the previously
// referenced snapshot intact.  See segment.go.
//
// Three durability modes mirror the evaluation's LFS variants:
//
//   - asynchronous: Put buffers in memory, and Mark records a change at
//     the source (the kernel's segment), which is copied in only at a sync,
//     a checkpoint or a Get; nothing reaches disk until a checkpoint.
//   - per-object sync: SyncObject appends the object — contents and label
//     in one record, so a crash can never resurrect an object without its
//     taint — to the write-ahead log through the group committer and waits
//     for the batch commit: concurrent syncers share one sequential write
//     plus flush.
//   - group sync: Checkpoint seals the dirty set, writes it to home
//     segments, persists the metadata trees, and updates the superblock
//     once.
//
// # Incremental checkpoints
//
// Checkpoint is no longer a stop-the-world pause.  The protocol has four
// phases (see checkpoint.go for the full invariant catalogue):
//
//   - COPY-IN, under ckptMu read mode: every marked object is copied in
//     from the source, so the exclusive seal copies nothing.
//   - SEAL, the only exclusive moment: a brief ckptMu write hold that
//     captures the dirty set (clearing dirty, marking entries ckpt),
//     captures every label, and appends an epoch marker to the write-ahead
//     log.  Seal duration is proportional to the number of entries, with no
//     disk I/O except the marker append.
//   - BODY, concurrent with everything: relocates the sealed entries into
//     segments, runs the segment cleaner, and writes the metadata snapshot
//     for the sealed epoch while reads, Puts, and SyncObject group commits
//     proceed under ckptMu read mode.
//     Bodies of different checkpoints are serialized by ckptRun.
//   - FINISH: reclaims write-ahead log generations older than the previous
//     epoch (the previous generation is retained so a torn metadata area
//     can fall back one snapshot with zero committed-sync loss).
//
// Log records appended after the seal marker carry state the sealed
// snapshot may not include, and replay on top of it at Open; records from
// before the marker are reclaimable once the snapshot commits.
//
// # Locking discipline
//
// The store admits concurrent operations with the same discipline the
// kernel uses: no big lock, sharded tables, per-object state.  In order of
// acquisition:
//
//  1. ckptMu, a store-wide RWMutex, is the checkpoint gate: every object
//     operation (Put, Get, Delete, label ops, SyncObject, stats) holds it in
//     read mode for its duration.  Only the checkpoint SEAL and Close hold
//     it exclusively, and only briefly; the checkpoint body runs under no
//     ckptMu mode at all, serialized against other checkpoints by ckptRun.
//  2. Each cached object has its own entry (objEntry) with a per-entry
//     mutex guarding its contents, dirty/dead/ckpt/marked flags, and label.
//     Contents are copy-on-write: e.data is replaced, never mutated in
//     place, so a sealed log record or a sealed checkpoint capture may
//     alias it after the entry lock is released.  Copying an object in
//     reads the source under the entry lock (ckptMu in read mode): store
//     entry → kernel segment, so the kernel never calls the store while
//     holding an object lock.
//  3. The entry table is sharded by object-ID bits (Options.Shards; 1
//     forces the single-shard ablation).  Each shard's RWMutex guards its
//     id→entry map and its slice of the label fingerprint index.  Shard
//     locks nest inside entry locks (label-index updates) and are never
//     held while acquiring an entry lock — entry pointers are fetched under
//     the shard read lock, which is released before the entry is locked.
//  4. sbMu fences superblock and metadata-area device I/O: the checkpoint
//     body holds it across the snapshot write + superblock flip, and scrub
//     holds it while verifying those same regions, so scrub never reads a
//     torn in-progress image.
//  5. metaMu (RWMutex) guards the object map, size table, and content-CRC
//     table: Get's home-location reads take it shared, checkpoint
//     relocation takes it exclusively per object — never across device
//     I/O, which is staged outside the lock.
//  6. allocMu guards the free-extent trees, the segment table, and the
//     deferred-free list.  Reads never touch it, so lookups never contend
//     with allocation.
//  7. The committer's queue mutex (see groupcommit.go) is a leaf below the
//     entry locks: records are sealed and enqueued under the entry lock so
//     per-object log order matches seal order.
//
// Under ckptMu held exclusively (the seal; Format and Open are
// single-threaded) entry locks are not required: entries are read and
// written directly.
//
// Recovery (Open) loads the snapshot the superblock references, replays the
// committed write-ahead log from that snapshot's epoch marker on top of it
// — restoring each logged object's label and recomputing its fingerprints
// exactly once — and rebuilds the fingerprint index entries for replayed
// labels.  The crash-injection harness in this package's tests replays
// every write-boundary crash point of randomized workloads — concurrent
// ones included — to check exactly this path.
package store

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"histar/internal/btree"
	"histar/internal/disk"
	"histar/internal/label"
	"histar/internal/wal"
)

// Layout constants.
const (
	superblockOffset = 0
	superblockSize   = 4096
	logOffset        = superblockSize
	defaultLogSize   = 32 << 20 // 32 MB log region

	// defaultMetaAreaSize is the default size of each of the two alternating
	// metadata areas; checkpoints write the serialized metadata into the
	// area not referenced by the current superblock, then flip the
	// superblock, so a crash mid-checkpoint always leaves one intact copy.
	defaultMetaAreaSize = 16 << 20

	superMagic = 0x48495354 // "HIST"

	// extentAlign is the allocation granularity.  HiStar's allocator does
	// not cluster small objects the way ext3's block groups do, which is the
	// effect behind the uncached small-file read gap in Figure 12; aligning
	// extents reproduces that dispersion.
	extentAlign = 8192
)

// Errors.
var (
	ErrNoSuchObject = errors.New("store: no such object")
	ErrNoSpace      = errors.New("store: out of disk space")
	ErrClosed       = errors.New("store: store is closed")
)

// Stats describes cumulative store activity.
type Stats struct {
	Puts            uint64
	Gets            uint64
	Deletes         uint64
	ObjectSyncs     uint64
	Checkpoints     uint64
	LogApplications uint64
	BytesLogged     uint64
	BytesHome       uint64
	// LabelBytesLogged counts canonical label bytes appended to the
	// write-ahead log by SyncObject.
	LabelBytesLogged uint64
	// LabelDecodes counts label.DecodeBinary calls made by the store (on
	// snapshot load and log replay).  Index queries must not move it: the
	// tests assert ObjectsWithLabel answers taint scans from fingerprints
	// alone.
	LabelDecodes uint64
	// IndexQueries counts ObjectsWithLabel calls.
	IndexQueries uint64
	// WALCommits counts write-ahead log commits; with group commit active it
	// stays below ObjectSyncs (many syncs per flush).  GroupBatches counts
	// the batches the committer successfully committed (the committer is the
	// single source of truth for batching stats; see GroupCommitStats for
	// the full histogram).
	WALCommits   uint64
	GroupBatches uint64
	DirtyObjects int
	LiveObjects  int
	// LabeledObjects and IndexEntries snapshot the label map and the
	// fingerprint index; they are always equal unless the index is corrupt.
	LabeledObjects int
	IndexEntries   int
	// SealStallTotalNs and SealStallMaxNs measure the only exclusive moment
	// an incremental checkpoint has: the ckptMu write hold of the seal.
	// This is the store's "stop-the-world" budget — everything else in a
	// checkpoint runs concurrently with syncs and reads.
	SealStallTotalNs int64
	SealStallMaxNs   int64
	// BytesCleaned counts object bytes the segment cleaner copied out of
	// half-dead segments; together with BytesHome and MetaBytesWritten it
	// gives the checkpoint write-amplification picture.
	BytesCleaned     uint64
	MetaBytesWritten uint64
	// SegsAllocated / SegsCleaned / SegsFreed count data-region segments
	// created by the segment writer, compacted by the cleaner, and returned
	// to the free trees.
	SegsAllocated uint64
	SegsCleaned   uint64
	SegsFreed     uint64
}

type counters struct {
	puts, gets, deletes, objectSyncs atomic.Uint64
	checkpoints, logApplications     atomic.Uint64
	bytesLogged, bytesHome           atomic.Uint64
	labelBytesLogged, labelDecodes   atomic.Uint64
	indexQueries                     atomic.Uint64

	sealStallTotalNs, sealStallMaxNs atomic.Int64
	bytesCleaned, metaBytesWritten   atomic.Uint64
	segsAllocated, segsCleaned       atomic.Uint64
	segsFreed                        atomic.Uint64

	bundleSnapshots, objectClones atomic.Uint64
	cloneBytesShared              atomic.Uint64
}

type extent struct {
	off  int64
	size int64
}

// Store is a single-level store on a simulated disk.  It is safe for
// concurrent use; see the package comment for the locking discipline.
type Store struct {
	d disk.Device
	l *wal.Log

	logSize  int64
	metaSize int64

	// ckptMu is the checkpoint gate (discipline rule 1).  closed and source
	// are guarded by it (read under R, written under W).
	ckptMu sync.RWMutex
	closed bool
	// source reads an object's current contents (the kernel's segment) to
	// copy marked objects in; see SetSource.
	source func(id uint64) ([]byte, bool)

	// ckptRun serializes checkpoint runs end to end (seal through finish);
	// ckptMu write mode covers only the seal, so without ckptRun two
	// concurrent Checkpoint calls could interleave their bodies.
	ckptRun sync.Mutex
	// mapAhead is set while the in-memory object map may hold changes of a
	// checkpoint body that no committed snapshot carries yet: from the start
	// of each body until its snapshot commits, and so after any failed body.
	// While it is set a dead entry missing from objMap may still be mapped
	// on disk, so the seal keeps it instead of pruning it.  Guarded by
	// ckptRun.
	mapAhead bool

	// sealSeq counts checkpoint SEALs and completedSeal the highest sealed
	// sequence whose body has fully committed.  SyncObject's full-log
	// fallback records sealSeq under ckptMu.R before syncing; the record is
	// durably covered once completedSeal exceeds that value (a checkpoint
	// sealed strictly after the record was enqueued has committed).
	sealSeq       atomic.Uint64
	completedSeal atomic.Uint64

	// shards hold the in-memory object entries and the label index,
	// partitioned by object-ID bits.
	shards    []storeShard
	shardMask uint64

	// metaMu guards the object map, size table, and content-CRC table.
	metaMu   sync.RWMutex
	objMap   *btree.Tree // object ID → extent offset
	objSizes map[uint64]int64
	// objCRCs holds the CRC32C of each object's home-extent contents,
	// recorded when the checkpoint writes the extent and verified whenever
	// it is read back.  Every object in objMap has one.
	objCRCs map[uint64]uint32
	// bundles is the snapshot-bundle table, lineage ID → bundle (see
	// bundle.go); registered bundles pin their extents via extRefs and are
	// persisted in the metadata snapshot's bundle section (format v4).
	bundles map[uint64]*Bundle

	// allocMu guards the free-extent trees, the segment table, and the
	// deferred-free list.
	allocMu    sync.Mutex
	freeBySize *btree.Tree // (size, offset) → 0
	freeByOff  *btree.Tree // (offset, 0) → size
	// deferredFree holds extents vacated during a checkpoint (relocations,
	// deletions, emptied segments) until every data write of that checkpoint
	// has issued; kept on the store, not the stack, so a failed checkpoint
	// retains them for the next attempt instead of leaking the space.
	deferredFree []extent
	// extRefs counts references to shared home extents — object-map aliases
	// created by CloneObject plus bundle pins.  An absent entry means the
	// ordinary single owner; vacateExtent decrements before freeing, so a
	// shared extent is reclaimed only when its last referent lets go.
	// Rebuilt from the object map and bundle table at Open.
	extRefs map[int64]int64

	// The append-only data segments (see segment.go): segs maps base offset
	// to segment, segBases indexes the bases for containment lookups, and
	// openSegBase is the segment currently receiving appends (0 = none; the
	// data region never starts at offset 0).  Guarded by allocMu.
	segs        map[int64]*segment
	segBases    *btree.Tree
	openSegBase int64
	segSize     int64

	comm committer

	// sbMu fences superblock and metadata-area device I/O (discipline rule
	// 4): the checkpoint body's snapshot write + superblock flip and scrub's
	// verification of those regions exclude each other.
	sbMu sync.Mutex

	metaWhich int // which metadata area (0 or 1) the superblock references
	// metaEpoch is the checkpoint epoch recorded in the current superblock
	// and metadata-area headers; the next checkpoint writes metaEpoch+1.
	// Written under metaMu by the checkpoint body (ckptRun-serialized);
	// the seal may read it without metaMu because the previous body's
	// release of ckptRun happens-before this run's acquisition.
	metaEpoch uint64

	// Test hooks, set before the store is shared: scrubGate runs between
	// scrub chunks (no locks held), ckptGate between a checkpoint's seal and
	// body.
	scrubGate func()
	ckptGate  func()

	// report records the degradation-ladder rungs Open took; immutable once
	// the store is published.
	report RecoveryReport

	integ integrityCounters

	c counters
}

// Options configure Format and Open.
type Options struct {
	// LogSize is the size of the write-ahead log region (default 32 MB).
	LogSize int64
	// MetaAreaSize is the size of each of the two alternating metadata
	// areas (default 16 MB).  Format records it in the superblock; Open
	// reads it back, so the option only matters when formatting.
	MetaAreaSize int64
	// Shards is the store-shards knob: the number of object-cache shards
	// (rounded down to a power of two).  0 picks the default; 1 forces the
	// whole cache through a single shard lock, used by the scaling ablation
	// benchmarks.  Runtime-only: not persisted in the superblock.
	Shards int
	// GroupCommitBytes bounds the encoded size of one group-commit batch
	// (default 1 MB); a batch always admits at least one record.
	GroupCommitBytes int64
	// GroupCommitRecords bounds the number of records in one group-commit
	// batch (default 128).
	GroupCommitRecords int
	// SegmentSize is the size of the append-only data segments checkpoint
	// relocation packs small objects into (default 1 MB, rounded up to the
	// extent alignment).  Runtime-only: each existing segment's geometry is
	// persisted in the metadata snapshot, so reopening under a different
	// SegmentSize affects only newly allocated segments.
	SegmentSize int64
}

// defaultSegmentSize balances sequential checkpoint writes against cleaner
// copy granularity.
const defaultSegmentSize = 1 << 20

// defaultStoreShards keeps shard-lock collisions negligible at any
// realistic GOMAXPROCS while staying cheap to iterate for stats.
const defaultStoreShards = 32

// newStore builds the in-memory skeleton shared by Format and Open.
func newStore(d disk.Device, opts Options) *Store {
	nShards := defaultStoreShards
	if opts.Shards > 0 {
		nShards = 1 << bits.Len(uint(opts.Shards)) >> 1 // round down to a power of two
		if nShards < 1 {
			nShards = 1
		}
	}
	segSize := opts.SegmentSize
	if segSize <= 0 {
		segSize = defaultSegmentSize
	}
	s := &Store{
		d:        d,
		logSize:  opts.LogSize,
		metaSize: opts.MetaAreaSize,
		objMap:   &btree.Tree{},
		objSizes: make(map[uint64]int64),
		objCRCs:  make(map[uint64]uint32),
		bundles:  make(map[uint64]*Bundle),

		freeBySize: &btree.Tree{},
		freeByOff:  &btree.Tree{},
		extRefs:    make(map[int64]int64),

		segs:     make(map[int64]*segment),
		segBases: &btree.Tree{},
		segSize:  alignUp(segSize),

		shards:    make([]storeShard, nShards),
		shardMask: uint64(nShards - 1),
	}
	for i := range s.shards {
		s.shards[i].objs = make(map[uint64]*objEntry)
		s.shards[i].labelIndex = &btree.Tree{}
	}
	s.comm.maxBytes = opts.GroupCommitBytes
	if s.comm.maxBytes <= 0 {
		s.comm.maxBytes = 1 << 20
	}
	s.comm.maxRecs = opts.GroupCommitRecords
	if s.comm.maxRecs <= 0 {
		s.comm.maxRecs = 128
	}
	return s
}

// Format initializes an empty single-level store on d, erasing any previous
// contents, and returns it ready for use.
func Format(d disk.Device, opts Options) (*Store, error) {
	if opts.LogSize == 0 {
		opts.LogSize = defaultLogSize
	}
	if opts.MetaAreaSize == 0 {
		opts.MetaAreaSize = defaultMetaAreaSize
	}
	s := newStore(d, opts)
	l, err := wal.New(d, logOffset, opts.LogSize)
	if err != nil {
		return nil, err
	}
	s.l = l
	dataStart := logOffset + opts.LogSize + 2*s.metaSize
	s.addFree(extent{off: dataStart, size: d.Size() - dataStart})
	if err := s.writeSnapshot(s.metaEpoch+1, nil); err != nil {
		return nil, err
	}
	return s, nil
}

// Open mounts an existing store from d, replaying the write-ahead log if the
// system crashed before the log was applied.  This is the "bootup restores
// the entire system state from the most recent on-disk snapshot" path:
// snapshot metadata (including object labels and the fingerprint index) is
// loaded first, then committed log records — each carrying an object's
// contents and canonical label — are re-applied on top, so a synced object
// always comes back with the taint it was synced with.
//
// Every structure is checksum-verified on the way in, and failures walk a
// degradation ladder instead of failing the mount (see RecoveryReport): a
// damaged primary superblock copy falls back to the backup copy; a damaged
// referenced metadata area falls back to the alternate (previous-checkpoint)
// area plus a replay of the retained write-ahead log generation, losing no
// committed sync; a damaged fingerprint-index section alone is rebuilt from
// the label section; a damaged log yields its valid prefix.  Only when both
// superblock copies or both metadata areas are corrupt does Open refuse,
// with an error matching ErrCorrupt.
func Open(d disk.Device, opts Options) (*Store, error) {
	if opts.LogSize == 0 {
		opts.LogSize = defaultLogSize
	}
	s := newStore(d, opts)
	if err := s.readSuperblock(); err != nil {
		return nil, err
	}
	s.l = wal.Open(d, logOffset, s.logSize)
	recs, err := s.l.Recover()
	if err != nil {
		if !errors.Is(err, wal.ErrCorrupt) {
			return nil, err
		}
		// Damaged record or header: the valid prefix was recovered and the
		// log resealed.  Mount degraded rather than refusing.
		s.report.WALDamaged = true
		s.noteCorruption(err)
	}
	// Re-apply committed log records on top of the checkpointed state.  Open
	// is single-threaded (the store is not yet published), so entries are
	// written directly.  Normally only the current checkpoint generation
	// (records after the loaded snapshot's seal marker) replays; after a
	// metadata fallback the retained previous generation replays too, which
	// is exactly what makes the older snapshot catch up with zero
	// committed-sync loss.
	for _, r := range recs[s.walReplayStart(s.l):] {
		if r.Mark {
			continue
		}
		s.report.WALRecordsReplayed++
		if r.Bundle {
			// A snapshot bundle committed after the loaded snapshot's seal;
			// a damaged payload degrades the mount (clones of the lost bundle
			// quarantine) rather than refusing it.
			_ = s.replayBundleRecord(r)
			continue
		}
		if r.Clone {
			s.replayCloneRecord(r)
			continue
		}
		sh := s.shardOf(r.ObjectID)
		e := sh.getOrCreate(r.ObjectID)
		if r.Delete {
			e.data, e.cached, e.dirty, e.dead = nil, false, false, true
			e.quar = false
			s.clearLabel(sh, r.ObjectID, e)
			continue
		}
		e.data = append([]byte(nil), r.Data...)
		e.cached, e.dirty = true, true
		// A logged re-create after a logged tombstone must clear the dead
		// flag, or the next SyncObject would log a spurious deletion.
		e.dead = false
		e.quar = false
		if len(r.Label) == 0 {
			// A label-less record asserts the object was unlabeled when it
			// was synced (it may have been deleted and re-created since a
			// checkpoint recorded a label, with no tombstone ever logged).
			s.clearLabel(sh, r.ObjectID, e)
			continue
		}
		lbl, rest, derr := s.decodeLabel(r.Label)
		if derr != nil || len(rest) != 0 {
			return nil, s.noteCorruption(fmt.Errorf("%w: replaying label of object %d: %v", ErrCorrupt, r.ObjectID, derr))
		}
		// Fingerprints were recomputed once by the decode; the index entry
		// is rebuilt here so replayed taints are queryable.
		s.setLabel(sh, r.ObjectID, e, lbl)
	}
	// Replayed bundle and clone records introduced references the loaded
	// snapshot's derived state does not reflect: rebuild the extent
	// refcounts and segment live totals once over the final tables.
	s.recomputeSegLive()
	return s, nil
}

// Disk returns the underlying device.
func (s *Store) Disk() disk.Device { return s.d }

// Stats returns a snapshot of store statistics.
func (s *Store) Stats() Stats {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	ws := s.l.Stats()
	st := Stats{
		Puts:             s.c.puts.Load(),
		Gets:             s.c.gets.Load(),
		Deletes:          s.c.deletes.Load(),
		ObjectSyncs:      s.c.objectSyncs.Load(),
		Checkpoints:      s.c.checkpoints.Load(),
		LogApplications:  s.c.logApplications.Load(),
		BytesLogged:      s.c.bytesLogged.Load(),
		BytesHome:        s.c.bytesHome.Load(),
		LabelBytesLogged: s.c.labelBytesLogged.Load(),
		LabelDecodes:     s.c.labelDecodes.Load(),
		IndexQueries:     s.c.indexQueries.Load(),
		WALCommits:       ws.Commits,
		GroupBatches:     s.GroupCommitStats().Batches,
		SealStallTotalNs: s.c.sealStallTotalNs.Load(),
		SealStallMaxNs:   s.c.sealStallMaxNs.Load(),
		BytesCleaned:     s.c.bytesCleaned.Load(),
		MetaBytesWritten: s.c.metaBytesWritten.Load(),
		SegsAllocated:    s.c.segsAllocated.Load(),
		SegsCleaned:      s.c.segsCleaned.Load(),
		SegsFreed:        s.c.segsFreed.Load(),
	}
	// Entry locks first, metaMu second: the entry→metaMu order matches
	// Get's readHome path, so a pending metaMu writer can never wedge
	// between the two.
	var dirtyIDs []uint64
	for si := range s.shards {
		sh := &s.shards[si]
		for _, e := range sh.snapshot() {
			e.entry.mu.Lock()
			if e.entry.dirty {
				dirtyIDs = append(dirtyIDs, e.id)
			}
			e.entry.mu.Unlock()
		}
		sh.mu.RLock()
		st.IndexEntries += sh.labelIndex.Len()
		sh.mu.RUnlock()
	}
	st.DirtyObjects = len(dirtyIDs)
	s.metaMu.RLock()
	st.LiveObjects = s.objMap.Len()
	for _, id := range dirtyIDs {
		if _, ok := s.objMap.Get(btree.K1(id)); !ok {
			st.LiveObjects++
		}
	}
	s.metaMu.RUnlock()
	st.LabeledObjects = st.IndexEntries
	return st
}

// WALStats returns the write-ahead log's cumulative counters (commit,
// truncate, append, and group-commit batch counts).
func (s *Store) WALStats() wal.Stats { return s.l.Stats() }

// Put stores (or replaces) the contents of an object in memory.  Nothing is
// written to disk until SyncObject or a checkpoint, mirroring HiStar's
// delayed allocation.
func (s *Store) Put(id uint64, data []byte) error {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	e := s.shardOf(id).getOrCreate(id)
	e.mu.Lock()
	s.putEntry(e, data)
	e.mu.Unlock()
	return nil
}

// putEntry installs a copy of data; the caller holds ckptMu in read mode
// and the entry lock.
func (s *Store) putEntry(e *objEntry, data []byte) {
	s.installEntry(e, append([]byte(nil), data...))
}

// installEntry makes data, which the caller hands over, the entry's dirty
// contents; Stats.Puts counts it.  Copy-on-write: e.data is replaced, never
// mutated, so sealed log records may alias the old slice.
func (s *Store) installEntry(e *objEntry, data []byte) {
	e.data = data
	e.cached, e.dirty, e.dead = true, true, false
	// New contents supersede a damaged home extent: lift the quarantine.
	e.quar = false
	s.c.puts.Add(1)
}

// SetSource attaches the object source: a trusted read of an object's
// current contents by ID (false if there is no such object).  Writers then
// call Mark instead of Put, and the store copies an object in when it needs
// the bytes: at a sync (also for a non-resident object), before a
// checkpoint's seal, and on a Get.  The source runs under the entry lock,
// so it must never call back into the store.
func (s *Store) SetSource(src func(id uint64) ([]byte, bool)) {
	s.ckptMu.Lock()
	s.source = src
	s.ckptMu.Unlock()
}

// Mark records that an object's contents changed at the source, copying
// nothing: the entry becomes dirty and counts as resident (Cached).
func (s *Store) Mark(id uint64) error {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	e := s.shardOf(id).getOrCreate(id)
	e.mu.Lock()
	e.marked, e.dirty = true, true
	e.mu.Unlock()
	return nil
}

// copyInLocked installs the source's current bytes; the caller holds ckptMu
// in read mode (never write mode) and the entry lock, so copies of one
// object install in the order they read the source.  Without such an
// object at the source, the entry keeps its last copy, home or deletion.
func (s *Store) copyInLocked(id uint64, e *objEntry) {
	e.marked = false
	if s.source != nil {
		if data, ok := s.source(id); ok {
			s.installEntry(e, data)
			return
		}
	}
	if !e.cached {
		e.dirty = false
	}
}

// Get returns the contents of an object, reading it from disk if it is not
// cached.
func (s *Store) Get(id uint64) ([]byte, error) {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	s.c.gets.Add(1)
	e := s.shardOf(id).getOrCreate(id)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.marked {
		s.copyInLocked(id, e)
	}
	if e.cached {
		return append([]byte(nil), e.data...), nil
	}
	if e.dead {
		return nil, ErrNoSuchObject
	}
	if e.quar {
		return nil, &QuarantineError{ID: id, Detail: "home extent failed verification"}
	}
	// Nothing resident: page the contents in while holding the entry lock
	// so concurrent misses do one disk read.
	buf, err := s.readHome(id)
	if err != nil {
		if errors.Is(err, ErrCorrupt) {
			qerr := s.quarantine(id, e, err.Error())
			off, hasOff := s.homeOffset(id)
			// Propagation locks sibling entries one at a time; drop this
			// entry's lock around it (the deferred unlock needs it back).
			e.mu.Unlock()
			if hasOff {
				s.propagateExtentRot(off, id)
			}
			e.mu.Lock()
			return nil, qerr
		}
		return nil, err
	}
	e.data = append([]byte(nil), buf...)
	e.cached = true
	return buf, nil
}

// readHome reads an object's contents from its home extent, verifying them
// against the checkpoint-recorded CRC.  A mismatch is reported as a
// CorruptError; callers quarantine the object.
func (s *Store) readHome(id uint64) ([]byte, error) {
	s.metaMu.RLock()
	off, ok := s.objMap.Get(btree.K1(id))
	size := s.objSizes[id]
	crc := s.objCRCs[id]
	s.metaMu.RUnlock()
	if !ok {
		return nil, ErrNoSuchObject
	}
	buf := make([]byte, size)
	if size > 0 {
		if _, err := s.d.ReadAt(buf, int64(off)); err != nil {
			return nil, err
		}
	}
	if got := crc32c(buf); got != crc {
		return nil, s.noteCorruption(&CorruptError{
			Area:   "object",
			Offset: int64(off),
			Detail: fmt.Sprintf("object %d contents checksum mismatch: got %#x, want %#x", id, got, crc),
		})
	}
	return buf, nil
}

// PutLabeled is Put plus recording the object's information-flow label.
// Labels are serialized in their canonical sorted form (into every SyncObject
// log record, and into the metadata snapshot at checkpoint) and their
// fingerprints are recomputed exactly once on load, so a restored system
// resumes with warm comparison-cache keys.  Contents and label are installed
// under one entry-lock hold, so a concurrent SyncObject can never seal the
// new contents with the old (or no) label — the same atomicity the log
// record format provides on disk.
func (s *Store) PutLabeled(id uint64, lbl label.Label, data []byte) error {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	sh := s.shardOf(id)
	e := sh.getOrCreate(id)
	e.mu.Lock()
	s.putEntry(e, data)
	s.setLabel(sh, id, e, lbl)
	e.mu.Unlock()
	return nil
}

// SetLabel records (or replaces) the label of an object without touching its
// contents.
func (s *Store) SetLabel(id uint64, lbl label.Label) error {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	sh := s.shardOf(id)
	e := sh.getOrCreate(id)
	e.mu.Lock()
	s.setLabel(sh, id, e, lbl)
	e.mu.Unlock()
	return nil
}

// decodeLabel is the store's only route to label deserialization; it feeds
// the LabelDecodes counter the index tests assert against.
func (s *Store) decodeLabel(src []byte) (label.Label, []byte, error) {
	s.c.labelDecodes.Add(1)
	return label.DecodeBinary(src)
}

// Label returns the stored label of an object, if one was recorded.
func (s *Store) Label(id uint64) (label.Label, bool) {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	e := s.shardOf(id).lookup(id)
	if e == nil {
		return label.Label{}, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lbl, e.hasLbl
}

// LabelCount returns how many objects have a recorded label.
func (s *Store) LabelCount() int {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	n := 0
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.RLock()
		n += sh.labelIndex.Len()
		sh.mu.RUnlock()
	}
	return n
}

// ObjectsWithLabel returns, in ascending order, the IDs of every object
// whose label has the given fingerprint — the "all objects tainted by
// category c" scan.  It is answered entirely from the fingerprint-keyed
// label index slices (one per shard, merged and sorted): no label is
// deserialized or even compared, which the LabelDecodes stat makes
// checkable.
func (s *Store) ObjectsWithLabel(fp label.Fingerprint) []uint64 {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	s.c.indexQueries.Add(1)
	var out []uint64
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.RLock()
		sh.labelIndex.ScanPrefix(uint64(fp), func(k btree.Key, _ uint64) bool {
			out = append(out, k[1])
			return true
		})
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// VerifyLabelIndex checks that the fingerprint index and the label map
// mirror each other exactly; the recovery tests run it after every replayed
// crash.
func (s *Store) VerifyLabelIndex() error {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	for si := range s.shards {
		sh := &s.shards[si]
		labeled := 0
		for _, se := range sh.snapshot() {
			se.entry.mu.Lock()
			hasLbl, fp := se.entry.hasLbl, se.entry.lbl.Fingerprint()
			se.entry.mu.Unlock()
			if !hasLbl {
				continue
			}
			labeled++
			sh.mu.RLock()
			_, ok := sh.labelIndex.Get(btree.K2(uint64(fp), se.id))
			sh.mu.RUnlock()
			if !ok {
				return fmt.Errorf("store: label index missing object %d (fingerprint %x)", se.id, uint64(fp))
			}
		}
		sh.mu.RLock()
		n := sh.labelIndex.Len()
		sh.mu.RUnlock()
		if n != labeled {
			return fmt.Errorf("store: shard %d label index has %d entries for %d labels", si, n, labeled)
		}
	}
	return nil
}

// Cached reports whether the object's contents are resident in memory (for
// a marked object, at the source).
func (s *Store) Cached(id uint64) bool {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	e := s.shardOf(id).lookup(id)
	if e == nil {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cached || e.marked
}

// EvictCache drops all clean objects from the in-memory cache, forcing
// subsequent Gets to hit the disk (used by the uncached read benchmarks).
// Labels stay resident: only contents are evicted.  A marked object is
// dirty, so it keeps its mark.
func (s *Store) EvictCache() {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	for si := range s.shards {
		for _, se := range s.shards[si].snapshot() {
			se.entry.mu.Lock()
			// A checkpoint-sealed entry's resident copy is the only copy of
			// its sealed state until the body writes it home: never evictable.
			if se.entry.cached && !se.entry.dirty && !se.entry.ckpt {
				se.entry.data, se.entry.cached = nil, false
			}
			se.entry.mu.Unlock()
		}
	}
}

// Delete removes an object.
func (s *Store) Delete(id uint64) error {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	s.c.deletes.Add(1)
	sh := s.shardOf(id)
	e := sh.getOrCreate(id)
	e.mu.Lock()
	e.data, e.cached, e.dirty, e.dead, e.marked = nil, false, false, true, false
	e.quar = false // deletion disposes of the damaged extent
	s.clearLabel(sh, id, e)
	e.mu.Unlock()
	return nil
}

// Close checkpoints and marks the store closed.
func (s *Store) Close() error {
	if err := s.Checkpoint(); err != nil {
		return err
	}
	s.ckptMu.Lock()
	s.closed = true
	s.ckptMu.Unlock()
	return nil
}

// FreeBytes returns the total free space in the data region.
func (s *Store) FreeBytes() int64 {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	s.allocMu.Lock()
	defer s.allocMu.Unlock()
	var total int64
	s.freeByOff.Scan(func(_ btree.Key, v uint64) bool {
		total += int64(v)
		return true
	})
	return total
}
