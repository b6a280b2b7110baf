// On-disk integrity reference.  (The package comment in store.go covers
// the layout, the segment-structured data region, the incremental
// checkpoint protocol, and the locking; this file documents the checksum
// formats, the checkpoint write schedule, the degradation ladder, and the
// quarantine semantics in one place.)
//
// # Checksums
//
// Every persistent structure carries a CRC32C (Castagnoli), chosen for its
// burst-detection properties: the generator polynomial has a factor of
// x+1, so any odd-weight error burst within one checksummed span is
// detected with certainty.
//
//   - Superblock: two 64-byte copies at offsets 0 and 512, each with a
//     CRC32C over bytes [0, 56) in its final u32.  Fields (LE u64): magic
//     "HIST", referenced metadata area (0 or 1), snapshot byte length, log
//     region size, metadata area size, format version (2), checkpoint
//     epoch.  The CRC is checked before any field is trusted, the version
//     after it.
//   - Metadata area header (48 bytes): magic "HMET", version (4), checkpoint
//     epoch, payload length, section count (6), CRC32C over the header's
//     first 40 bytes.
//   - Metadata sections: each framed [tag u64][length u64][CRC32C u64]
//     [payload], the CRC covering the payload.  Tags: 1 object map, 2 free
//     extents, 3 labels, 4 fingerprint index, 5 segment table (base, size,
//     used triples for the append-only data segments; per-segment live
//     counts are derived from the object map at open), 6 snapshot-bundle
//     table.  Verification requires every tag exactly once, in-bounds
//     lengths, and no trailing bytes, so a flipped tag or length never
//     silently reassigns bytes between sections.
//   - Object extents: every object-map entry records a CRC32C of the
//     object's contents (with bit 32 of the field set; an entry without it
//     does not decode), computed when the checkpoint writes the object to
//     its home (segment or dedicated extent) and verified on every uncached
//     read, every scrub pass, and every segment-cleaner copy.  Bundle
//     objects carry the same field.
//   - Write-ahead log: per-record and header CRCs (package wal).
//
// These are the only formats the store reads.  A superblock copy or
// metadata area naming any other version fails verification and walks the
// degradation ladder below like any other damage; the log refuses an intact
// header naming another version with wal.ErrVersion.
//
// # Checkpoint write schedule
//
// An incremental checkpoint committing epoch E writes in this order, each
// step leaving the previously referenced snapshot intact:
//
//  0. COPY-IN (ckptMu read mode, no disk I/O): every object marked since
//     it was last copied is copied in from the source (the kernel's
//     segment), each under its entry lock — the store entry → kernel
//     segment lock edge (see the locking discipline in store.go).  An
//     object marked after this pass stays marked for the next checkpoint.
//  1. SEAL (brief ckptMu write hold): append the epoch-E marker record to
//     the write-ahead log.  Records after the marker are exactly the syncs
//     the epoch-E snapshot might miss.
//  2. BODY (no ckptMu; serialized by ckptRun): write sealed objects into
//     append-only segments (or dedicated extents) — never over live data;
//     appends land beyond each segment's committed high-water mark, and
//     extents vacated by relocation, deletion, or the segment cleaner are
//     queued on a deferred-free list.  Then run the cleaner, and only
//     after every data write has issued return the deferred extents to the
//     allocator — so the epoch-E-1 snapshot's extents are never reused
//     before epoch E commits.  If step 3 fails, they leave the free trees
//     again and wait for the next checkpoint.
//  3. Serialize the metadata (object map and allocator state read under
//     their locks; labels from the seal-time capture) into the area the
//     superblock does NOT reference, flush, then rewrite both superblock
//     copies referencing it at epoch E and flush again (all under sbMu, so
//     a concurrent scrub never reads the areas mid-rewrite).
//  4. FINISH: reclaim log records from before the epoch-E-1 marker.  The
//     E-1 generation is retained so a later torn epoch-E area can fall
//     back one snapshot and replay forward with zero committed-sync loss
//     (when the retained generation would starve the log, it degrades to
//     reclaiming up to E's own marker).
//
// A crash before the superblock flip recovers at epoch E-1 plus full log
// replay; after it, at epoch E plus replay of post-marker records.  Every
// boundary in between is exercised by the crash matrices in crash_test.go
// and incremental_test.go.
//
// # Degradation ladder
//
// Open never serves unverified state and never gives up while an intact
// copy remains.  From least to most degraded:
//
//  1. Clean: primary superblock copy verifies, the referenced metadata
//     area verifies at the superblock's epoch, the log replays from that
//     epoch's marker.
//  2. SuperblockFallback: the primary copy fails, the backup at offset 512
//     verifies and is used.  Nothing else changes.
//  3. IndexRebuilt: only the fingerprint-index section fails its CRC; the
//     index is rebuilt from the (intact) label section instead of failing
//     the mount.
//  4. MetaFallback: the referenced area fails; the alternate area is
//     accepted only if it verifies at a strictly older epoch (an equal or
//     newer epoch would mean an uncommitted checkpoint).  The write-ahead
//     log is then replayed from the older epoch's retained marker (or in
//     full) — FINISH keeps the previous generation, and a checkpoint's
//     freed extents rejoin the allocator only after its snapshot commits,
//     so falling back one snapshot loses no committed sync.
//  5. WALDamaged: a damaged log record or header truncates replay to the
//     valid prefix; the log is resealed past it.
//  6. Refusal: both superblock copies, or both metadata areas, are
//     damaged.  Open returns an error wrapping ErrCorrupt rather than
//     guessing.
//
// Which rungs fired is recorded in the RecoveryReport, immutable after
// Open; a degraded mount heals on the next checkpoint, which rewrites both
// the metadata and both superblock copies at a fresh epoch.
//
// # Quarantine
//
// A home extent whose contents fail CRC verification — on an uncached Get,
// during a scrub, or when the segment cleaner tries to copy it out —
// quarantines exactly that object: accesses return a QuarantineError
// (errors.Is-matching both ErrQuarantined and ErrCorrupt), SyncObject
// refuses to log the damaged bytes, and the ID stays enumerable via
// QuarantinedObjects.  The rest of the store serves normally (the cleaner
// additionally leaves the damaged object's whole segment in place — moving
// it would destroy the only, albeit damaged, copy).  A quarantine verdict
// is lifted by anything that replaces the damaged extent as the object's
// authority: a new Put, a Delete, a logged copy replayed at open, or the
// checkpoint relocation of a sealed dirty entry.  Because scrub now runs
// concurrently with checkpoint bodies, a scrub mismatch is re-validated
// against the live object map before the verdict — an extent the
// checkpoint has already superseded is stale, not damaged.  Detection and
// quarantine events are counted in IntegrityStats and surfaced through
// kernel stats and histar-bench's integrity section.
//
// The bit-rot harness in bitrot_test.go injects odd-weight flips into each
// structure above — including objects packed inside sealed segments — and
// asserts the matching rung, and only that rung, fires.

package store
