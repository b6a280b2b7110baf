package store

import (
	"time"

	"histar/internal/btree"
)

// ScrubStats is the result of one scrub pass.
type ScrubStats struct {
	// SuperblockCopiesOK counts the superblock copies (of 2) that passed
	// verification.
	SuperblockCopiesOK int
	// MetaAreasChecked / MetaAreasOK cover the referenced metadata area
	// and, when it holds a committed older snapshot, the alternate one.
	MetaAreasChecked int
	MetaAreasOK      int
	// IndexCorrupt reports that only the fingerprint-index section of a
	// checked area failed — recoverable damage (the index is rebuilt from
	// labels at open).
	IndexCorrupt bool
	// ObjectsChecked counts home extents verified against their recorded
	// contents CRC; ObjectsQuarantined counts extents newly quarantined by
	// this pass.
	ObjectsChecked     int
	ObjectsQuarantined int
	// CorruptionsFound is every verification failure this pass detected
	// (superblock copies, metadata areas, index section, object extents).
	CorruptionsFound int
	// BytesVerified is the volume of data read and checksummed.
	BytesVerified int64
	// Duration is the wall-clock cost of the pass.
	Duration time.Duration
}

// scrubTarget is one home extent to verify, captured from the object map
// under metaMu so the walk itself runs lock-free.
type scrubTarget struct {
	id   uint64
	off  int64
	size int64
	crc  uint32
}

// scrubChunk bounds how many object extents are verified per ckptMu read
// hold.  The gate is reacquired between chunks, so a pending checkpoint
// seal (a ckptMu writer) waits for at most one chunk of reads — not the
// whole pass — and syncs queued behind that writer see bounded latency.
const scrubChunk = 64

// Scrub verifies the store's on-disk state in the background of normal
// operation: both superblock copies, the referenced (and, when present, the
// alternate) metadata area, and every object home extent against its
// recorded contents CRC.  Mismatched extents are quarantined exactly as an
// access-time detection would.
//
// The object walk is chunked: each chunk of extents is verified under its
// own ckptMu read hold, and the lock is dropped between chunks, so a
// checkpoint seal never queues behind a full pass (and syncs never queue
// behind the seal).  Because the checkpoint body relocates extents
// concurrently, a mismatch is re-validated against the live object map
// before any quarantine verdict: a target whose object has moved or been
// re-checksummed since capture is simply stale, not damaged.  Superblock
// and metadata-area verification runs under sbMu, which the checkpoint
// body holds across its snapshot write and superblock flip, so scrub never
// reads a torn in-progress image.
func (s *Store) Scrub() (ScrubStats, error) {
	start := time.Now()
	var st ScrubStats

	s.ckptMu.RLock()
	if s.closed {
		s.ckptMu.RUnlock()
		return ScrubStats{}, ErrClosed
	}
	s.sbMu.Lock()
	s.scrubSuperblock(&st)
	s.scrubMetaAreas(&st)
	s.sbMu.Unlock()
	targets := s.scrubTargets()
	s.ckptMu.RUnlock()

	for len(targets) > 0 {
		if s.scrubGate != nil {
			s.scrubGate()
		}
		n := scrubChunk
		if n > len(targets) {
			n = len(targets)
		}
		chunk := targets[:n]
		targets = targets[n:]
		s.ckptMu.RLock()
		if s.closed {
			s.ckptMu.RUnlock()
			break
		}
		for _, t := range chunk {
			s.scrubOneObject(t, &st)
		}
		s.ckptMu.RUnlock()
	}

	st.Duration = time.Since(start)
	s.integ.scrubPasses.Add(1)
	s.integ.scrubBytes.Add(uint64(st.BytesVerified))
	s.integ.mu.Lock()
	s.integ.lastScrub = st
	s.integ.mu.Unlock()
	return st, nil
}

// scrubSuperblock verifies both superblock copies in place; the caller
// holds sbMu.
func (s *Store) scrubSuperblock(st *ScrubStats) {
	raw := make([]byte, sbBackupOff+sbCopySize)
	if _, err := s.d.ReadAt(raw, superblockOffset); err != nil {
		st.CorruptionsFound++
		s.integ.corruptions.Add(1)
		return
	}
	_, perr := parseSuperblockCopy(raw[:sbCopySize], superblockOffset)
	_, berr := parseSuperblockCopy(raw[sbBackupOff:], superblockOffset+sbBackupOff)
	st.BytesVerified += 2 * sbCopySize
	if perr == nil {
		st.SuperblockCopiesOK++
	} else {
		st.CorruptionsFound++
		s.integ.corruptions.Add(1)
	}
	if berr == nil {
		st.SuperblockCopiesOK++
	} else {
		st.CorruptionsFound++
		s.integ.corruptions.Add(1)
	}
}

// scrubMetaAreas verifies the referenced metadata area and, when it holds a
// committed (strictly older epoch) snapshot, the alternate one — the copy a
// future fallback would depend on.  The caller holds sbMu, which keeps metaWhich and
// metaEpoch stable (the checkpoint body updates them under sbMu) and
// excludes an in-progress area rewrite.
func (s *Store) scrubMetaAreas(st *ScrubStats) {
	areaLen := func(secs [numSecs + 1][]byte) int64 {
		n := int64(metaHeaderSize)
		for _, sec := range secs {
			if sec != nil {
				n += 24 + int64(len(sec))
			}
		}
		return n
	}
	// Referenced area: must verify at the current epoch.
	secs, epoch, indexErr, err := s.verifyMetaArea(s.metaWhich)
	st.MetaAreasChecked++
	switch {
	case err != nil:
		st.CorruptionsFound++
		s.integ.corruptions.Add(1)
	case epoch != s.metaEpoch:
		st.CorruptionsFound++
		s.integ.corruptions.Add(1)
	default:
		st.MetaAreasOK++
		st.BytesVerified += areaLen(secs)
		if indexErr != nil {
			st.IndexCorrupt = true
			st.CorruptionsFound++
			s.integ.corruptions.Add(1)
		}
	}
	// Alternate area: only meaningful once it holds a committed older
	// snapshot (epoch strictly below the superblock's).  An unparseable
	// header is indistinguishable from "never written", so it is skipped
	// rather than counted.
	altSecs, altEpoch, altIndexErr, altErr := s.verifyMetaArea(1 - s.metaWhich)
	if altErr == nil && altEpoch < s.metaEpoch {
		st.MetaAreasChecked++
		st.MetaAreasOK++
		st.BytesVerified += areaLen(altSecs)
		if altIndexErr != nil {
			st.IndexCorrupt = true
			st.CorruptionsFound++
			s.integ.corruptions.Add(1)
		}
	}
}

// scrubTargets captures every mapped home extent under metaMu.
func (s *Store) scrubTargets() []scrubTarget {
	s.metaMu.RLock()
	defer s.metaMu.RUnlock()
	targets := make([]scrubTarget, 0, s.objMap.Len())
	s.objMap.Scan(func(k btree.Key, v uint64) bool {
		id := k[0]
		targets = append(targets, scrubTarget{
			id: id, off: int64(v), size: s.objSizes[id], crc: s.objCRCs[id],
		})
		return true
	})
	return targets
}

// scrubOneObject verifies one captured home extent; the caller holds ckptMu
// in read mode.
func (s *Store) scrubOneObject(t scrubTarget, st *ScrubStats) {
	buf := make([]byte, t.size)
	if t.size > 0 {
		if _, err := s.d.ReadAt(buf, t.off); err != nil {
			st.CorruptionsFound++
			s.integ.corruptions.Add(1)
			return
		}
	}
	st.ObjectsChecked++
	st.BytesVerified += t.size
	if crc32c(buf) == t.crc {
		return
	}
	// The extent disagrees with the CRC captured at walk start — but the
	// checkpoint body may have relocated the object since then, making this
	// target stale rather than damaged.  Only a mismatch the live object map
	// still vouches for is a real verdict.
	s.metaMu.RLock()
	cur, ok := s.objMap.Get(btree.K1(t.id))
	crcNow := s.objCRCs[t.id]
	s.metaMu.RUnlock()
	if !ok || int64(cur) != t.off || crcNow != t.crc {
		return
	}
	st.CorruptionsFound++
	s.integ.corruptions.Add(1)
	e := s.shardOf(t.id).getOrCreate(t.id)
	e.mu.Lock()
	// Skip the verdict if the on-disk copy is already superseded: a dirty,
	// dead, or checkpoint-sealed entry's in-memory state replaces this
	// extent at the next relocation.
	if !e.dirty && !e.dead && !e.ckpt {
		if !e.quar {
			st.ObjectsQuarantined++
		}
		s.quarantine(t.id, e, "home extent failed scrub verification")
	}
	e.mu.Unlock()
}
