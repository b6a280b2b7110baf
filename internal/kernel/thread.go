package kernel

import (
	"histar/internal/label"
)

// CategoryCreate allocates a fresh category (cat_t create_category).  The
// invoking thread becomes the only owner: its label gains c ⋆ and its
// clearance gains c 3.  Labels are egalitarian — any thread may allocate
// arbitrarily many categories.
func (tc *ThreadCall) CategoryCreate() (label.Category, error) {
	ctx, err := tc.enter(scCategoryCreate)
	if err != nil {
		return 0, err
	}
	c := tc.k.cats.Alloc()
	t := ctx.t
	t.mu.Lock()
	t.lbl = t.lbl.With(c, label.Star)
	t.clearance = t.clearance.With(c, label.L3)
	t.bump()
	t.mu.Unlock()
	return c, nil
}

// CategoryCreateNamed is CategoryCreate plus a human-readable display name
// for the new category (diagnostics only; confers nothing).
func (tc *ThreadCall) CategoryCreateNamed(name string) (label.Category, error) {
	c, err := tc.CategoryCreate()
	if err != nil {
		return 0, err
	}
	tc.k.cats.SetName(c, name)
	return c, nil
}

// SelfLabel returns the invoking thread's current label.
func (tc *ThreadCall) SelfLabel() (label.Label, error) {
	ctx, err := tc.enter(scSelfGetLabel)
	if err != nil {
		return label.Label{}, err
	}
	return ctx.lbl, nil
}

// SelfClearance returns the invoking thread's current clearance.
func (tc *ThreadCall) SelfClearance() (label.Label, error) {
	ctx, err := tc.enter(scSelfGetClearance)
	if err != nil {
		return label.Label{}, err
	}
	return ctx.clearance, nil
}

// SelfSetLabel changes the invoking thread's label to l, permitted only when
// LT ⊑ l ⊑ CT (int self_set_label).  A thread can therefore taint itself to
// read more tainted objects, but can never shed taint it does not own.
func (tc *ThreadCall) SelfSetLabel(l label.Label) error {
	ctx, err := tc.enter(scSelfSetLabel)
	if err != nil {
		return err
	}
	if !label.ValidThreadLabel(l) {
		return ErrInvalid
	}
	t := ctx.t
	// The thread-local segment follows the thread's taint so the thread can
	// always write its own scratch space.
	ls := lockOrdered(objLock{t, true}, objLock{t.localSegment, true})
	defer ls.unlock()
	// Validate against the thread's label as it is now, under the lock.
	if !label.CanRaiseLabelTo(t.lbl, t.clearance, l) {
		return ErrLabel
	}
	t.lbl = l
	t.localSegment.lbl = l.LowerStar()
	t.bump()
	return nil
}

// SelfSetClearance changes the invoking thread's clearance to c, permitted
// only when LT ⊑ c ⊑ (CT ⊔ LTᴶ) (int self_set_clearance).  A thread may
// lower its clearance in any category (not below its label) and may raise
// clearance only in categories it owns.
func (tc *ThreadCall) SelfSetClearance(c label.Label) error {
	ctx, err := tc.enter(scSelfSetClearance)
	if err != nil {
		return err
	}
	if !label.ValidClearance(c) {
		return ErrInvalid
	}
	t := ctx.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if !label.CanSetClearanceTo(t.lbl, t.clearance, c) {
		return ErrLabel
	}
	t.clearance = c
	t.bump()
	return nil
}

// SelfAddressSpace returns the container entry of the invoking thread's
// current address space.
func (tc *ThreadCall) SelfAddressSpace() (CEnt, error) {
	ctx, err := tc.enter(scSelfGetAS)
	if err != nil {
		return CEnt{}, err
	}
	return ctx.as, nil
}

// SelfSetAddressSpace switches the invoking thread to a different address
// space (self_set_as).  The thread must be able to observe the address
// space: LA ⊑ LTᴶ.
func (tc *ThreadCall) SelfSetAddressSpace(as CEnt) error {
	ctx, err := tc.enter(scSelfSetAS)
	if err != nil {
		return err
	}
	_, obj, err := tc.k.peek(ctx, as)
	if err != nil {
		return err
	}
	a, ok := obj.(*addressSpace)
	if !ok {
		return ErrWrongType
	}
	if !label.CanObserve(ctx.lbl, a.lbl) {
		return ErrLabel
	}
	t := ctx.t
	t.mu.Lock()
	t.addressSpace = as
	t.bump()
	t.mu.Unlock()
	return nil
}

// ThreadSpec describes a thread to be created.
type ThreadSpec struct {
	// Label and Clearance for the new thread; must satisfy
	// LT ⊑ Label ⊑ Clearance ⊑ CT for the creating thread.
	Label     label.Label
	Clearance label.Label
	// AddressSpace the new thread starts with (may be the zero CEnt when the
	// creator will set it later through its own ThreadCall).
	AddressSpace CEnt
	// Descrip is the 32-byte descriptive string.
	Descrip string
	// Quota is the storage charged to the containing container (0 picks a
	// small default).
	Quota uint64
}

// ThreadCreate creates a new thread in container d.  The creating thread
// must be able to write d, and the new thread's label and clearance must
// satisfy LT ⊑ LT′ ⊑ CT′ ⊑ CT.  The new thread does not run by itself in
// this simulation; the caller obtains its syscall context from
// Kernel.ThreadCall and drives it (typically from a new goroutine).
func (tc *ThreadCall) ThreadCreate(d ID, spec ThreadSpec) (ID, error) {
	ctx, err := tc.enter(scThreadCreate)
	if err != nil {
		return NilID, err
	}
	if !label.ValidThreadLabel(spec.Label) || !label.ValidClearance(spec.Clearance) {
		return NilID, ErrInvalid
	}
	cont, err := tc.k.lookupContainer(d)
	if err != nil {
		return NilID, err
	}
	if cont.avoidTypes.Has(ObjThread) {
		return NilID, ErrAvoidType
	}
	if !label.CanModify(ctx.lbl, cont.lbl) {
		return NilID, ErrLabel
	}
	// LT ⊑ LT' ⊑ CT' ⊑ CT.
	if !ctx.lbl.Leq(spec.Label) || !spec.Label.Leq(spec.Clearance) || !spec.Clearance.Leq(ctx.clearance) {
		return NilID, ErrLabel
	}
	quota := spec.Quota
	if quota == 0 {
		quota = 1 << 20
	}
	nt := &thread{
		header: header{
			id:      tc.k.newID(),
			objType: ObjThread,
			lbl:     spec.Label,
			quota:   quota,
			descrip: truncDescrip(spec.Descrip),
			refs:    1,
		},
		clearance:    spec.Clearance,
		addressSpace: spec.AddressSpace,
		alertCh:      make(chan struct{}, 1),
	}
	nt.localSegment = &segment{
		header: header{
			id:      tc.k.newID(),
			objType: ObjSegment,
			lbl:     spec.Label.LowerStar(),
			quota:   localSegmentSize,
			descrip: "thread-local segment",
		},
		data:             make([]byte, localSegmentSize),
		threadLocalOwner: nt.id,
	}
	nt.usage = nt.footprint()
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
	tc.k.insert(nt)
	cont.link(nt.id)
	return nt.id, nil
}

// ThreadHalt halts the invoking thread.  Further system calls through its
// context return ErrHalted.
func (tc *ThreadCall) ThreadHalt() error {
	ctx, err := tc.enter(scThreadHalt)
	if err != nil {
		return err
	}
	t := ctx.t
	t.mu.Lock()
	t.halted = true
	t.bump()
	t.mu.Unlock()
	return nil
}

// Halted reports whether the thread has been halted (or deallocated).
func (tc *ThreadCall) Halted() bool {
	o, err := tc.k.lookup(tc.tid)
	if err != nil {
		return true
	}
	t, ok := o.(*thread)
	if !ok {
		return true
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.halted
}

// ThreadAlert sends an alert (HiStar's low-level signal) to the thread named
// by target.  The invoking thread must be able to write the target thread's
// address space (LT ⊑ LA ⊑ LTᴶ) and to observe the target (Ltarget ⊑ LTᴶ).
// The alert code is queued and the target's alert handler (or AlertWait)
// consumes it.
func (tc *ThreadCall) ThreadAlert(target CEnt, code uint64) error {
	ctx, err := tc.enter(scThreadAlert)
	if err != nil {
		return err
	}
	cont, obj, err := tc.k.peek(ctx, target)
	if err != nil {
		return err
	}
	victim, ok := obj.(*thread)
	if !ok {
		return ErrWrongType
	}
	ls := lockOrdered(objLock{cont, false}, objLock{victim, true})
	if err := cont.verifyLinked(victim.id); err != nil {
		ls.unlock()
		return err
	}
	if !liveLocked(victim) {
		ls.unlock()
		return ErrNoSuchObject
	}
	// Observe the target thread (its label is read under its lock).
	if !label.CanObserve(ctx.lbl, victim.lbl) {
		ls.unlock()
		return ErrLabel
	}
	// Write the target's address space.
	if victim.addressSpace.Object != NilID {
		aso, err := tc.k.lookup(victim.addressSpace.Object)
		if err != nil {
			ls.unlock()
			return err
		}
		as, ok := aso.(*addressSpace)
		if !ok {
			ls.unlock()
			return ErrWrongType
		}
		// Address-space labels are immutable; no lock on it needed.
		if !label.CanModify(ctx.lbl, as.lbl) {
			ls.unlock()
			return ErrLabel
		}
	} else {
		// No address space: fall back to requiring write permission on the
		// thread object itself.
		if !label.CanModify(ctx.lbl, victim.lbl) {
			ls.unlock()
			return ErrLabel
		}
	}
	victim.alertQueue = append(victim.alertQueue, code)
	ch := victim.alertCh
	ls.unlock()
	// Non-blocking notify.
	select {
	case ch <- struct{}{}:
	default:
	}
	return nil
}

// AlertPoll removes and returns a pending alert, if any.
func (tc *ThreadCall) AlertPoll() (uint64, bool, error) {
	ctx, err := tc.enter(scAlertPoll)
	if err != nil {
		return 0, false, err
	}
	t := ctx.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.alertQueue) == 0 {
		return 0, false, nil
	}
	code := t.alertQueue[0]
	t.alertQueue = t.alertQueue[1:]
	return code, true, nil
}

// AlertWait blocks until an alert is delivered to the invoking thread, then
// returns its code.
func (tc *ThreadCall) AlertWait() (uint64, error) {
	for {
		o, err := tc.k.lookup(tc.tid)
		if err != nil {
			return 0, ErrHalted
		}
		t, ok := o.(*thread)
		if !ok {
			return 0, ErrWrongType
		}
		t.mu.Lock()
		if t.halted {
			t.mu.Unlock()
			return 0, ErrHalted
		}
		if len(t.alertQueue) > 0 {
			code := t.alertQueue[0]
			t.alertQueue = t.alertQueue[1:]
			t.mu.Unlock()
			return code, nil
		}
		ch := t.alertCh
		t.mu.Unlock()
		<-ch
	}
}

// LocalSegmentWrite writes into the invoking thread's one-page thread-local
// segment, which is always writable by the current thread regardless of its
// label.
func (tc *ThreadCall) LocalSegmentWrite(off int, data []byte) error {
	ctx, err := tc.enter(scLocalSegmentWrite)
	if err != nil {
		return err
	}
	seg := ctx.t.localSegment
	seg.mu.Lock()
	defer seg.mu.Unlock()
	if off < 0 || off+len(data) > len(seg.data) {
		return ErrInvalid
	}
	copy(seg.data[off:], data)
	return nil
}

// LocalSegmentRead reads from the invoking thread's thread-local segment.
func (tc *ThreadCall) LocalSegmentRead(off, n int) ([]byte, error) {
	ctx, err := tc.enter(scLocalSegmentRead)
	if err != nil {
		return nil, err
	}
	seg := ctx.t.localSegment
	seg.mu.RLock()
	defer seg.mu.RUnlock()
	if off < 0 || n < 0 || off+n > len(seg.data) {
		return nil, ErrInvalid
	}
	out := make([]byte, n)
	copy(out, seg.data[off:off+n])
	return out, nil
}

// GrantOwnership is a convenience used by trusted bootstrap and test code to
// hand ownership of a category to a thread directly.  In the real system
// ownership transfers only through gates or thread creation; the user-level
// library uses those mechanisms, but tests need a way to set up initial
// conditions (for instance, a user's login shell owning ur and uw).
// The invoking thread must itself own the category.
func (tc *ThreadCall) GrantOwnership(target ID, c label.Category) error {
	ctx, err := tc.enter(scGrantOwnership)
	if err != nil {
		return err
	}
	if !ctx.lbl.Owns(c) {
		return ErrLabel
	}
	o, err := tc.k.lookup(target)
	if err != nil {
		return err
	}
	vt, ok := o.(*thread)
	if !ok {
		return ErrWrongType
	}
	vt.mu.Lock()
	defer vt.mu.Unlock()
	if !liveLocked(vt) {
		return ErrNoSuchObject
	}
	vt.lbl = vt.lbl.With(c, label.Star)
	vt.clearance = vt.clearance.With(c, label.L3)
	vt.bump()
	return nil
}
