package store

import (
	"histar/internal/btree"
)

// The log-structured data region: checkpoint relocations append sealed
// object contents into fixed-size append-only segments at 512-byte
// granularity, so one checkpoint's home writes are a handful of sequential
// streams instead of one random extent per object.  Objects too large to
// pack (more than half a segment) keep the original dedicated-extent path.
//
// A segment's extent is never overwritten in place: appends only ever land
// beyond the committed high-water mark (used), and space behind dead
// objects is reclaimed by freeing the whole segment once it is empty, or by
// the cleaner (cleanSegments) once at least half its written bytes are
// dead.  Both routes go through the deferred-free list, so a snapshot that
// is still referenced on disk never has a segment written over — the same
// copy-on-write discipline dedicated extents always had.

// segment is one append-only extent in the data region.  used is the append
// high-water mark (512-aligned); live counts the 512-aligned bytes of
// objects the object map still references and drives the cleaner; size is
// the extent length recorded when the segment was created, so images opened
// under a different SegmentSize option keep their old segments' geometry.
// live is derived (recomputed from the object map at open); base, size, and
// used are persisted in the metadata snapshot's segment section.  All
// fields are guarded by allocMu.
type segment struct {
	base int64
	size int64
	used int64
	live int64
}

// align512 is the packing granularity inside segments.
func align512(n int64) int64 { return (n + 511) &^ 511 }

// segContainingLocked returns the segment whose extent contains off, or
// nil; the caller holds allocMu.
func (s *Store) segContainingLocked(off int64) *segment {
	k, _, ok := s.segBases.Floor(btree.K1(uint64(off)))
	if !ok {
		return nil
	}
	seg := s.segs[int64(k[0])]
	if seg == nil || off >= seg.base+seg.size {
		return nil
	}
	return seg
}

// dropSegLocked forgets a segment; the caller holds allocMu and has already
// queued (or is about to queue) its extent for release.
func (s *Store) dropSegLocked(base int64) {
	delete(s.segs, base)
	s.segBases.Delete(btree.K1(uint64(base)))
	if s.openSegBase == base {
		s.openSegBase = 0
	}
}

// vacateExtent releases one reference to the home extent behind (off,
// size).  A shared extent (clone aliases and/or bundle pins, tracked in
// extRefs) just loses a reference — no byte is reclaimable while any
// referent remains, which is what keeps the cleaner and the deferred-free
// path off bundle-reachable data.  The sole (or last) referent's release
// does the real work: space inside a segment decrements the segment's live
// count — the extent itself is reclaimed when the segment empties (here) or
// by the cleaner — while a dedicated extent joins the deferred-free list
// directly.  Called by the checkpoint body (ckptRun serializes) and by
// DeleteBundle (pin release); takes allocMu, so it may be called with
// metaMu held (lock order metaMu → allocMu).
func (s *Store) vacateExtent(off, size int64) {
	s.allocMu.Lock()
	defer s.allocMu.Unlock()
	if n, ok := s.extRefs[off]; ok {
		if n <= 2 {
			delete(s.extRefs, off) // back to a single owner
		} else {
			s.extRefs[off] = n - 1
		}
		return
	}
	if seg := s.segContainingLocked(off); seg != nil {
		seg.live -= align512(size)
		if seg.live <= 0 {
			seg.live = 0
			if seg.base != s.openSegBase {
				s.deferredFree = append(s.deferredFree, extent{off: seg.base, size: seg.size})
				s.dropSegLocked(seg.base)
				s.c.segsFreed.Add(1)
			}
		}
		return
	}
	s.deferredFree = append(s.deferredFree, extent{off: off, size: alignUp(size)})
}

// segAppend appends one object's contents to the open segment (rotating to
// a freshly allocated one when it would overflow) and returns the object's
// new home offset.  The device write is issued with no lock held; segment
// bookkeeping is under allocMu.  Only the checkpoint body calls it (ckptRun
// serializes), so the open segment cannot rotate underneath the write.
func (s *Store) segAppend(data []byte) (int64, error) {
	sz := align512(int64(len(data)))
	s.allocMu.Lock()
	seg := s.segs[s.openSegBase]
	if s.openSegBase == 0 || seg == nil || seg.used+sz > seg.size {
		s.allocMu.Unlock()
		ext, err := s.allocate(s.segSize)
		if err != nil {
			return 0, err
		}
		s.allocMu.Lock()
		seg = &segment{base: ext.off, size: ext.size}
		s.segs[ext.off] = seg
		s.segBases.Put(btree.K1(uint64(ext.off)), 0)
		s.openSegBase = ext.off
		s.c.segsAllocated.Add(1)
	}
	off := seg.base + seg.used
	seg.used += sz
	seg.live += sz
	s.allocMu.Unlock()
	if len(data) > 0 {
		if _, err := s.d.WriteAt(data, off); err != nil {
			return 0, err
		}
	}
	return off, nil
}

// recomputeSegLive derives the loaded image's reference state: the extent
// refcounts (extRefs — object-map aliases plus bundle pins; neither is
// persisted directly) and each segment's live count, with every unique
// extent counted exactly once no matter how many referents share it.  It
// also reopens the most recently allocated partially filled segment —
// provided its geometry matches the current SegmentSize — so appends
// continue where the committed snapshot left off.  Appending beyond a
// committed used mark is crash-safe: no referenced snapshot addresses those
// bytes.  Runs during Open, single-threaded, and is idempotent: Open calls
// it again after WAL replay, which may have added bundles and clones.
func (s *Store) recomputeSegLive() {
	type ref struct {
		n    int64
		size int64
	}
	refs := make(map[int64]ref, s.objMap.Len())
	s.objMap.Scan(func(k btree.Key, v uint64) bool {
		r := refs[int64(v)]
		r.n++
		r.size = s.objSizes[k[0]]
		refs[int64(v)] = r
		return true
	})
	for _, b := range s.bundles {
		for i := range b.Objects {
			o := &b.Objects[i]
			r := refs[o.Off]
			r.n++
			if r.size == 0 {
				r.size = o.Size
			}
			refs[o.Off] = r
		}
	}
	s.extRefs = make(map[int64]int64)
	for off, r := range refs {
		if r.n >= 2 {
			s.extRefs[off] = r.n
		}
	}
	if len(s.segs) == 0 {
		return
	}
	for _, seg := range s.segs {
		seg.live = 0
	}
	for off, r := range refs {
		if seg := s.segContainingLocked(off); seg != nil {
			seg.live += align512(r.size)
		}
	}
	s.openSegBase = 0
	for base, seg := range s.segs {
		if seg.size == s.segSize && seg.used < seg.size && base > s.openSegBase {
			s.openSegBase = base
		}
	}
}

// cleanSegments is the data region's garbage collector, run by the
// checkpoint body after relocation: fully dead segments are freed without
// copying, and segments with at least half their written bytes dead have
// their live objects appended to the open segment so the whole extent can
// be reclaimed.  A live object that fails its contents CRC on the way out
// is quarantined and its segment left in place (moving would destroy the
// only — damaged — copy).
func (s *Store) cleanSegments() error {
	// Segments holding bundle-pinned extents are immovable: a bundle records
	// its extents by offset, so copying them out would invalidate every
	// future clone and replay of the bundle.  (A clone-shared extent with no
	// bundle pin may still move — each alias is copied out separately and
	// vacateExtent retires the share one reference at a time.)  Bundle
	// extents always count toward live, so a pinned segment can never look
	// empty; the skip below keeps both the free path and the copy-out path
	// off it.
	s.metaMu.RLock()
	var pinnedOffs []int64
	for _, b := range s.bundles {
		for i := range b.Objects {
			pinnedOffs = append(pinnedOffs, b.Objects[i].Off)
		}
	}
	s.metaMu.RUnlock()
	s.allocMu.Lock()
	pinned := make(map[int64]bool)
	for _, off := range pinnedOffs {
		if seg := s.segContainingLocked(off); seg != nil {
			pinned[seg.base] = true
		}
	}
	var victims []*segment
	for base, seg := range s.segs {
		if base == s.openSegBase || seg.used == 0 || pinned[base] {
			continue
		}
		if seg.live == 0 {
			s.deferredFree = append(s.deferredFree, extent{off: seg.base, size: seg.size})
			s.dropSegLocked(base)
			s.c.segsFreed.Add(1)
			continue
		}
		if seg.live*2 < seg.used {
			victims = append(victims, seg)
		}
	}
	s.allocMu.Unlock()
	if len(victims) == 0 {
		return nil
	}
	sortSegs(victims)
	// One object-map scan collects every victim's live objects (ascending
	// id, the deterministic order the segment writer needs).
	type liveObj struct {
		id   uint64
		off  int64
		size int64
		crc  uint32
	}
	byVictim := make(map[int64][]liveObj, len(victims))
	s.metaMu.RLock()
	s.objMap.Scan(func(k btree.Key, v uint64) bool {
		off := int64(v)
		for _, seg := range victims {
			if off >= seg.base && off < seg.base+seg.size {
				byVictim[seg.base] = append(byVictim[seg.base], liveObj{
					id: k[0], off: off, size: s.objSizes[k[0]], crc: s.objCRCs[k[0]],
				})
				break
			}
		}
		return true
	})
	s.metaMu.RUnlock()
	for _, seg := range victims {
		damaged := false
		for _, o := range byVictim[seg.base] {
			buf := make([]byte, o.size)
			if o.size > 0 {
				if _, err := s.d.ReadAt(buf, o.off); err != nil {
					damaged = true
					break
				}
			}
			if crc32c(buf) != o.crc {
				s.noteCorruption(&CorruptError{Area: "object", Offset: o.off,
					Detail: "contents checksum mismatch found by the segment cleaner"})
				e := s.shardOf(o.id).getOrCreate(o.id)
				e.mu.Lock()
				if !e.dirty && !e.dead && !e.ckpt {
					s.quarantine(o.id, e, "home extent failed verification during segment clean")
				}
				e.mu.Unlock()
				s.propagateExtentRot(o.off, o.id)
				damaged = true
				break
			}
			newOff, err := s.segAppend(buf)
			if err != nil {
				return err
			}
			s.metaMu.Lock()
			if cur, ok := s.objMap.Get(btree.K1(o.id)); ok && int64(cur) == o.off {
				s.objMap.Put(btree.K1(o.id), uint64(newOff))
				s.vacateExtent(o.off, o.size)
			}
			s.metaMu.Unlock()
			s.c.bytesCleaned.Add(uint64(o.size))
		}
		if !damaged {
			// Every live object moved out; the final vacateExtent freed the
			// segment when its live count reached zero.
			s.c.segsCleaned.Add(1)
		}
	}
	return nil
}

// sortSegs orders segments by base offset for deterministic cleaning.
func sortSegs(segs []*segment) {
	for i := 1; i < len(segs); i++ {
		for j := i; j > 0 && segs[j-1].base > segs[j].base; j-- {
			segs[j-1], segs[j] = segs[j], segs[j-1]
		}
	}
}
