package kernel

import (
	"histar/internal/label"
)

// segmentSlack is the extra quota granted to a fresh segment beyond its
// initial size, so small writes do not immediately require quota_move.
const segmentSlack = 16 * 1024

// SegmentCreate creates a segment of initial size nbytes in container d.
// The invoking thread must be able to write d and allocate at label l.
func (tc *ThreadCall) SegmentCreate(d ID, l label.Label, descrip string, nbytes int) (ID, error) {
	ctx, err := tc.enter(scSegmentCreate)
	if err != nil {
		return NilID, err
	}
	if nbytes < 0 {
		return NilID, ErrInvalid
	}
	if !label.ValidObjectLabel(l) {
		return NilID, ErrInvalid
	}
	cont, err := tc.k.lookupContainer(d)
	if err != nil {
		return NilID, err
	}
	if cont.avoidTypes.Has(ObjSegment) {
		return NilID, ErrAvoidType
	}
	if !label.CanModify(ctx.lbl, cont.lbl) {
		return NilID, ErrLabel
	}
	if !label.CanAllocate(ctx.lbl, ctx.clearance, l) {
		return NilID, ErrLabel
	}
	quota := uint64(nbytes) + segmentSlack
	s := &segment{
		header: header{
			id:      tc.k.newID(),
			objType: ObjSegment,
			lbl:     l,
			quota:   quota,
			descrip: truncDescrip(descrip),
			refs:    1,
		},
		data: make([]byte, nbytes),
	}
	s.usage = s.footprint()
	cont.mu.Lock()
	defer cont.mu.Unlock()
	if !liveLocked(cont) {
		return NilID, ErrNoSuchObject
	}
	if cont.immutable {
		return NilID, ErrImmutable
	}
	if err := tc.k.charge(cont, quota); err != nil {
		return NilID, err
	}
	tc.k.insert(s)
	cont.link(s.id)
	return s.id, nil
}

// SegmentCopy creates a copy of the segment named by src in container d with
// a (possibly different) label l.  Copies are how HiStar avoids re-labeling:
// object labels are immutable after creation, but some objects allow
// efficient copies to be made with different labels (Section 3).  The
// invoking thread must be able to observe the source, write d, and allocate
// at l.
func (tc *ThreadCall) SegmentCopy(src CEnt, d ID, l label.Label, descrip string) (ID, error) {
	ctx, err := tc.enter(scSegmentCopy)
	if err != nil {
		return NilID, err
	}
	if !label.ValidObjectLabel(l) {
		return NilID, ErrInvalid
	}
	srcCont, obj, err := tc.k.peek(ctx, src)
	if err != nil {
		return NilID, err
	}
	seg, ok := obj.(*segment)
	if !ok {
		return NilID, ErrWrongType
	}
	if !label.CanObserve(ctx.lbl, seg.lbl) {
		return NilID, ErrLabel
	}
	cont, err := tc.k.lookupContainer(d)
	if err != nil {
		return NilID, err
	}
	if cont.avoidTypes.Has(ObjSegment) {
		return NilID, ErrAvoidType
	}
	if !label.CanModify(ctx.lbl, cont.lbl) {
		return NilID, ErrLabel
	}
	if !label.CanAllocate(ctx.lbl, ctx.clearance, l) {
		return NilID, ErrLabel
	}
	ls := lockOrdered(objLock{srcCont, false}, objLock{seg, false}, objLock{cont, true})
	defer ls.unlock()
	if !liveLocked(cont) {
		return NilID, ErrNoSuchObject
	}
	if cont.immutable {
		return NilID, ErrImmutable
	}
	if err := verifyEntryLive(srcCont, seg); err != nil {
		return NilID, err
	}
	quota := uint64(len(seg.data)) + segmentSlack
	if err := tc.k.charge(cont, quota); err != nil {
		return NilID, err
	}
	ns := &segment{
		header: header{
			id:      tc.k.newID(),
			objType: ObjSegment,
			lbl:     l,
			quota:   quota,
			descrip: truncDescrip(descrip),
			refs:    1,
		},
		data: append([]byte(nil), seg.data...),
	}
	ns.usage = ns.footprint()
	tc.k.insert(ns)
	cont.link(ns.id)
	return ns.id, nil
}

// resolveSegment resolves ce to its container and segment with no locks
// held; membership and liveness still need verification under locks.
func (tc *ThreadCall) resolveSegment(ctx tctx, ce CEnt) (*container, *segment, error) {
	cont, obj, err := tc.k.peek(ctx, ce)
	if err != nil {
		return nil, nil, err
	}
	seg, ok := obj.(*segment)
	if !ok {
		return nil, nil, ErrWrongType
	}
	return cont, seg, nil
}

// checkSegmentRead applies the observation rules to a resolved segment: the
// owning thread may always read its thread-local segment, anyone else needs
// LO ⊑ LTᴶ.  Segment labels are immutable, so no lock is required.
func (tc *ThreadCall) checkSegmentRead(ctx tctx, seg *segment) error {
	if seg.threadLocalOwner != NilID && seg.threadLocalOwner == ctx.t.id {
		return nil
	}
	if !label.CanObserve(ctx.lbl, seg.lbl) {
		return ErrLabel
	}
	return nil
}

// checkSegmentWrite applies the modification rules (immutability is checked
// separately, under the segment's lock).
func (tc *ThreadCall) checkSegmentWrite(ctx tctx, seg *segment) error {
	if seg.threadLocalOwner != NilID {
		if seg.threadLocalOwner == ctx.t.id {
			return nil
		}
		return ErrLabel
	}
	if !label.CanModify(ctx.lbl, seg.lbl) {
		return ErrLabel
	}
	return nil
}

// segReadLocked is SegmentRead's body once the segment's lock is held (any
// mode) and liveness is verified; the ring executes it under a shared lock
// acquisition for a coalesced run of entries.
func segReadLocked(seg *segment, off, n int) ([]byte, error) {
	if off < 0 || n < 0 || off > len(seg.data) {
		return nil, ErrInvalid
	}
	// Clamp without computing off+n, which could overflow int.
	end := len(seg.data)
	if n < end-off {
		end = off + n
	}
	out := make([]byte, end-off)
	copy(out, seg.data[off:end])
	return out, nil
}

// SegmentRead reads n bytes at offset off from the segment named by ce.
func (tc *ThreadCall) SegmentRead(ce CEnt, off, n int) ([]byte, error) {
	ctx, err := tc.enter(scSegmentRead)
	if err != nil {
		return nil, err
	}
	cont, seg, err := tc.resolveSegment(ctx, ce)
	if err != nil {
		return nil, err
	}
	if err := tc.checkSegmentRead(ctx, seg); err != nil {
		return nil, err
	}
	ls := lockOrdered(objLock{cont, false}, objLock{seg, false})
	defer ls.unlock()
	if err := verifyEntryLive(cont, seg); err != nil {
		return nil, err
	}
	return segReadLocked(seg, off, n)
}

// SegmentWrite writes data at offset off in the segment named by ce,
// extending the segment if necessary (subject to its quota).
func (tc *ThreadCall) SegmentWrite(ce CEnt, off int, data []byte) error {
	ctx, err := tc.enter(scSegmentWrite)
	if err != nil {
		return err
	}
	cont, seg, err := tc.resolveSegment(ctx, ce)
	if err != nil {
		return err
	}
	if err := tc.checkSegmentWrite(ctx, seg); err != nil {
		return err
	}
	ls := lockOrdered(objLock{cont, false}, objLock{seg, true})
	defer ls.unlock()
	if err := verifyEntryLive(cont, seg); err != nil {
		return err
	}
	return segWriteLocked(tc.k, seg, off, data)
}

// unshareLocked readies the segment, under its write lock, for a mutation
// in place that needs n bytes (n ≤ its length needs no growth).  A frozen
// array, which a snapshot or clone still shares, is copied out first: the
// only place shared bytes are ever duplicated, so the kernel-wide
// copied-bytes counter lives here.  Other growth is amortized through
// append's spare capacity (uncharged: quota and footprint are
// length-based), clearing any bytes a truncation left there.
func (s *segment) unshareLocked(k *Kernel, n int) {
	old := len(s.data)
	n = max(n, old)
	switch {
	case s.frozen:
		s.frozen = false
		k.snap.cowBreaks.Add(1)
		k.snap.copiedBytes.Add(uint64(old))
		grown := make([]byte, n)
		copy(grown, s.data)
		s.data = grown
	case n <= cap(s.data):
		s.data = s.data[:n]
		clear(s.data[old:])
	default:
		s.data = append(s.data, make([]byte, n-old)...)
	}
}

// segWriteLocked is SegmentWrite's body once the segment's write lock is held
// and liveness is verified.
func segWriteLocked(k *Kernel, seg *segment, off int, data []byte) error {
	if seg.immutable {
		return ErrImmutable
	}
	if off < 0 {
		return ErrInvalid
	}
	end := off + len(data)
	if end < off { // int overflow; no quota could ever cover it
		return ErrQuota
	}
	if end > len(seg.data) && uint64(end)+128 > seg.quota {
		return ErrQuota
	}
	seg.unshareLocked(k, end)
	copy(seg.data[off:], data)
	seg.usage = seg.footprint()
	seg.bump()
	return nil
}

// SegmentResize sets the segment's length to n bytes.  A file's length is
// defined to be its segment's length (Section 5.1).
func (tc *ThreadCall) SegmentResize(ce CEnt, n int) error {
	ctx, err := tc.enter(scSegmentResize)
	if err != nil {
		return err
	}
	cont, seg, err := tc.resolveSegment(ctx, ce)
	if err != nil {
		return err
	}
	if err := tc.checkSegmentWrite(ctx, seg); err != nil {
		return err
	}
	ls := lockOrdered(objLock{cont, false}, objLock{seg, true})
	defer ls.unlock()
	if err := verifyEntryLive(cont, seg); err != nil {
		return err
	}
	return segResizeLocked(tc.k, seg, n)
}

// segResizeLocked is SegmentResize's body once the segment's write lock is
// held and liveness is verified.
func segResizeLocked(k *Kernel, seg *segment, n int) error {
	if seg.immutable {
		return ErrImmutable
	}
	if n < 0 {
		return ErrInvalid
	}
	if uint64(n)+128 > seg.quota {
		return ErrQuota
	}
	if n <= len(seg.data) {
		// Truncation keeps sharing the frozen array: shrinking mutates no
		// byte, and any later in-place write still breaks the COW first.
		seg.data = seg.data[:n]
	} else {
		seg.unshareLocked(k, n)
	}
	seg.usage = seg.footprint()
	seg.bump()
	return nil
}

// SegmentCompareSwap atomically replaces the 8-byte word at offset off with
// next if it currently equals old, reporting whether the swap happened.  It
// models a user-level compare-exchange instruction executed on a mapped
// segment, so it requires the same permissions as a write; the user-level
// library builds its directory and pipe mutexes on it together with the
// futex.
func (tc *ThreadCall) SegmentCompareSwap(ce CEnt, off uint64, old, next uint64) (bool, error) {
	ctx, err := tc.enter(scSegmentCAS)
	if err != nil {
		return false, err
	}
	cont, seg, err := tc.resolveSegment(ctx, ce)
	if err != nil {
		return false, err
	}
	if err := tc.checkSegmentWrite(ctx, seg); err != nil {
		return false, err
	}
	ls := lockOrdered(objLock{cont, false}, objLock{seg, true})
	defer ls.unlock()
	if err := verifyEntryLive(cont, seg); err != nil {
		return false, err
	}
	if seg.immutable {
		return false, ErrImmutable
	}
	if uint64(len(seg.data)) < 8 || off > uint64(len(seg.data))-8 {
		return false, ErrInvalid
	}
	cur := littleEndianU64(seg.data[off:])
	if cur != old {
		return false, nil
	}
	seg.unshareLocked(tc.k, 0)
	putLittleEndianU64(seg.data[off:], next)
	seg.bump()
	return true, nil
}

func littleEndianU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLittleEndianU64(b []byte, v uint64) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

// SegmentContents returns a copy of live segment id's bytes: the store's
// trusted read, with no label check, for copying an object in at a sync or
// checkpoint.  It takes only the segment's read lock, so the store may call
// it under its entry lock.
func (k *Kernel) SegmentContents(id ID) ([]byte, bool) {
	o, err := k.lookup(id)
	if err != nil {
		return nil, false
	}
	seg, ok := o.(*segment)
	if !ok {
		return nil, false
	}
	seg.mu.RLock()
	defer seg.mu.RUnlock()
	if !liveLocked(seg) {
		return nil, false
	}
	return append([]byte(nil), seg.data...), true
}

// SegmentLen returns the length of the segment named by ce.
func (tc *ThreadCall) SegmentLen(ce CEnt) (int, error) {
	ctx, err := tc.enter(scSegmentLen)
	if err != nil {
		return 0, err
	}
	cont, seg, err := tc.resolveSegment(ctx, ce)
	if err != nil {
		return 0, err
	}
	if err := tc.checkSegmentRead(ctx, seg); err != nil {
		return 0, err
	}
	ls := lockOrdered(objLock{cont, false}, objLock{seg, false})
	defer ls.unlock()
	if err := verifyEntryLive(cont, seg); err != nil {
		return 0, err
	}
	return len(seg.data), nil
}
