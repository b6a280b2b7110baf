package kernel

import (
	"histar/internal/label"
)

// ContainerCreate creates a new container inside container d
// (id_t container_create).  The invoking thread must be able to write d
// (LT ⊑ LD ⊑ LTᴶ) and to allocate an object with label l (LT ⊑ l ⊑ CT).
// avoidTypes restricts which object types may be created in the new
// container or any of its descendants; quota bounds the storage usage
// charged to d.
func (tc *ThreadCall) ContainerCreate(d ID, l label.Label, descrip string, avoidTypes TypeMask, quota uint64) (ID, error) {
	ctx, err := tc.enter(scContainerCreate)
	if err != nil {
		return NilID, err
	}
	if !label.ValidObjectLabel(l) {
		return NilID, ErrInvalid
	}
	parent, err := tc.k.lookupContainer(d)
	if err != nil {
		return NilID, err
	}
	if parent.avoidTypes.Has(ObjContainer) {
		return NilID, ErrAvoidType
	}
	if !label.CanModify(ctx.lbl, parent.lbl) {
		return NilID, ErrLabel
	}
	if !label.CanAllocate(ctx.lbl, ctx.clearance, l) {
		return NilID, ErrLabel
	}
	// A container less tainted than its parent pre-authorizes a small
	// information flow (Section 3.2); the allocation rules already require
	// the creating thread to own every category where LD(c) < LD'(c), which
	// CanAllocate+canModify enforce, so no extra check is needed here.
	if quota == 0 {
		quota = 1 << 20
	}
	nc := &container{
		header: header{
			id:      tc.k.newID(),
			objType: ObjContainer,
			lbl:     l,
			quota:   quota,
			descrip: truncDescrip(descrip),
			refs:    1,
		},
		parent:     d,
		entries:    make(map[ID]bool),
		avoidTypes: parent.avoidTypes | avoidTypes,
	}
	nc.usage = nc.footprint()
	parent.mu.Lock()
	defer parent.mu.Unlock()
	if !liveLocked(parent) {
		return NilID, ErrNoSuchObject
	}
	if parent.immutable {
		return NilID, ErrImmutable
	}
	if err := tc.k.charge(parent, quota); err != nil {
		return NilID, err
	}
	tc.k.insert(nc)
	parent.link(nc.id)
	return nc.id, nil
}

// ContainerGetParent returns the parent container of the container named by
// ce (container_get_parent).  The root container has no parent.
func (tc *ThreadCall) ContainerGetParent(ce CEnt) (ID, error) {
	ctx, err := tc.enter(scContainerGetParent)
	if err != nil {
		return NilID, err
	}
	_, obj, err := tc.k.peek(ctx, ce)
	if err != nil {
		return NilID, err
	}
	c, ok := obj.(*container)
	if !ok {
		return NilID, ErrNotContainer
	}
	// parent is immutable after creation; no lock on c needed.
	if c.parent == NilID {
		return NilID, ErrNotFound
	}
	return c.parent, nil
}

// containerEntries resolves ce as an observable container and snapshots its
// entry list under the standard resolve-lock-verify protocol; shared by
// ContainerList and ContainerFindLabeled so the protocol lives in one place.
func (tc *ThreadCall) containerEntries(ctx tctx, ce CEnt) ([]ID, error) {
	cont, obj, err := tc.k.peek(ctx, ce)
	if err != nil {
		return nil, err
	}
	c, ok := obj.(*container)
	if !ok {
		return nil, ErrNotContainer
	}
	if !label.CanObserve(ctx.lbl, c.lbl) {
		return nil, ErrLabel
	}
	ls := lockOrdered(objLock{cont, false}, objLock{c, false})
	defer ls.unlock()
	if err := verifyEntryLive(cont, c); err != nil {
		return nil, err
	}
	return c.list(), nil
}

// ContainerList returns the object IDs hard-linked into the container named
// by ce.  The invoking thread must be able to observe the container.
func (tc *ThreadCall) ContainerList(ce CEnt) ([]ID, error) {
	ctx, err := tc.enter(scContainerList)
	if err != nil {
		return nil, err
	}
	return tc.containerEntries(ctx, ce)
}

// ContainerFindLabeled returns the object IDs hard-linked into the container
// named by ce whose information-flow label has fingerprint fp — the kernel
// face of the store's fingerprint-keyed label index: "every object tainted
// exactly like L" without materializing or comparing a single label, since
// fingerprints are precomputed at label construction.  The invoking thread
// must be able to observe the container; entries whose labels the thread
// cannot observe are silently skipped, so the result reveals no more than a
// ContainerList followed by per-object stats would.
func (tc *ThreadCall) ContainerFindLabeled(ce CEnt, fp label.Fingerprint) ([]ID, error) {
	ctx, err := tc.enter(scContainerFindLabeled)
	if err != nil {
		return nil, err
	}
	ids, err := tc.containerEntries(ctx, ce)
	if err != nil {
		return nil, err
	}
	var out []ID
	for _, id := range ids {
		o, err := tc.k.lookup(id)
		if err != nil {
			continue // unlinked or deallocated since the snapshot
		}
		// One object at a time, read lock only: thread labels are mutable
		// (replaced wholesale under the header lock), so the read must be
		// under the lock; no second object lock is ever held.
		h := o.hdr()
		h.mu.RLock()
		lbl := h.lbl
		h.mu.RUnlock()
		if lbl.Fingerprint() != fp {
			continue
		}
		if !label.CanObserve(ctx.lbl, lbl) {
			continue
		}
		out = append(out, id)
	}
	return out, nil
}

// Link adds a hard link to the object named by src into container d.  The
// invoking thread must be able to write d and its clearance must be high
// enough to allocate objects at the target's label (Lsrc ⊑ CT).  The target
// object's quota must be fixed, since an object whose quota may change
// cannot be multiply linked (Section 3.3).
func (tc *ThreadCall) Link(d ID, src CEnt) error {
	ctx, err := tc.enter(scContainerLink)
	if err != nil {
		return err
	}
	dest, err := tc.k.lookupContainer(d)
	if err != nil {
		return err
	}
	if !label.CanModify(ctx.lbl, dest.lbl) {
		return ErrLabel
	}
	srcCont, obj, err := tc.k.peek(ctx, src)
	if err != nil {
		return err
	}
	h := obj.hdr()
	if h.objType == ObjContainer {
		// Containers have a single parent; only their creator links them.
		return ErrInvalid
	}
	if dest.avoidTypes.Has(h.objType) {
		return ErrAvoidType
	}
	ls := lockOrdered(objLock{srcCont, false}, objLock{dest, true}, objLock{obj, true})
	defer ls.unlock()
	if !liveLocked(dest) {
		return ErrNoSuchObject
	}
	if dest.immutable {
		return ErrImmutable
	}
	if err := srcCont.verifyLinked(h.id); err != nil {
		return err
	}
	if !liveLocked(obj) {
		return ErrNoSuchObject
	}
	// Non-thread labels are immutable, but thread labels are not; read under
	// the object's lock either way.
	if !h.lbl.Leq(ctx.clearance) {
		return ErrClearance
	}
	if !h.fixedQuota {
		return ErrFixedQuota
	}
	if dest.entries[h.id] {
		return ErrExists
	}
	// Conservatively double-charge: the full quota is charged to every
	// container holding a link.
	if err := tc.k.charge(dest, h.quota); err != nil {
		return err
	}
	dest.link(h.id)
	h.refs++
	return nil
}

// Unref removes the hard link to object o from container d.  The invoking
// thread must be able to write d.  When the last reference to an object is
// removed the object is deallocated; unreferencing a container recursively
// deallocates the subtree rooted at it.
func (tc *ThreadCall) Unref(d ID, o ID) error {
	ctx, err := tc.enter(scContainerUnref)
	if err != nil {
		return err
	}
	cont, err := tc.k.lookupContainer(d)
	if err != nil {
		return err
	}
	if !label.CanModify(ctx.lbl, cont.lbl) {
		return ErrLabel
	}
	if o == tc.k.rootID {
		return ErrRootContainer
	}
	obj, lookupErr := tc.k.lookup(o)
	if lookupErr != nil {
		// The target is already gone; just clear the stale link, if any.
		cont.mu.Lock()
		defer cont.mu.Unlock()
		if !liveLocked(cont) {
			return ErrNoSuchObject
		}
		if !cont.entries[o] {
			return ErrNoSuchObject
		}
		cont.unlink(o)
		return nil
	}
	var orphans []ID
	ls := lockOrdered(objLock{cont, true}, objLock{obj, true})
	if !liveLocked(cont) {
		ls.unlock()
		return ErrNoSuchObject
	}
	if !cont.entries[o] {
		ls.unlock()
		return ErrNoSuchObject
	}
	cont.unlink(o)
	if liveLocked(obj) {
		h := obj.hdr()
		tc.k.refund(cont, h.quota)
		h.refs--
		if h.refs <= 0 {
			orphans = tc.k.deallocLocked(obj)
		}
	}
	ls.unlock()
	// Tear the subtree down with no locks held; releaseRefs locks one
	// object at a time.
	tc.k.releaseRefs(orphans)
	return nil
}

// QuotaMove moves n bytes of quota from container d to object o contained in
// it (int quota_move): o's quota and d's usage both grow by n.  The invoking
// thread must be able to write d (LT ⊑ LD ⊑ LTᴶ) and allocate at o's label
// (LT ⊑ LO ⊑ CT).  When n is negative the call can fail if o has fewer than
// |n| spare bytes, which conveys information about o, so the thread must
// additionally be able to observe o (LO ⊑ LTᴶ).
func (tc *ThreadCall) QuotaMove(d ID, o ID, n int64) error {
	ctx, err := tc.enter(scQuotaMove)
	if err != nil {
		return err
	}
	cont, err := tc.k.lookupContainer(d)
	if err != nil {
		return err
	}
	obj, err := tc.k.lookup(o)
	if err != nil {
		return err
	}
	if !label.CanModify(ctx.lbl, cont.lbl) {
		return ErrLabel
	}
	ls := lockOrdered(objLock{cont, true}, objLock{obj, true})
	defer ls.unlock()
	if !liveLocked(cont) || !liveLocked(obj) {
		return ErrNoSuchObject
	}
	if !cont.entries[o] {
		return ErrNoSuchObject
	}
	h := obj.hdr()
	if !ctx.lbl.Leq(h.lbl) || !h.lbl.Leq(ctx.clearance) {
		return ErrLabel
	}
	if h.fixedQuota {
		return ErrFixedQuota
	}
	if n >= 0 {
		if err := tc.k.charge(cont, uint64(n)); err != nil {
			return err
		}
		h.quota += uint64(n)
		return nil
	}
	// Shrinking: returns an error when o has fewer than |n| spare bytes,
	// thereby conveying information about o to the caller.
	if !label.CanObserve(ctx.lbl, h.lbl) {
		return ErrLabel
	}
	take := uint64(-n)
	spare := h.quota - obj.footprint()
	if h.quota < obj.footprint() || spare < take {
		return ErrQuota
	}
	h.quota -= take
	tc.k.refund(cont, take)
	return nil
}

// ObjectStat returns the externally visible state of the object named by ce.
// The invoking thread must be able to read the containing container; in that
// case it may read the object's descriptive string and, unless the object is
// a thread, its label.  Thread labels are mutable, so reading another
// thread's label additionally requires LT′ᴶ ⊑ LTᴶ.
func (tc *ThreadCall) ObjectStat(ce CEnt) (Stat, error) {
	ctx, err := tc.enter(scObjectStat)
	if err != nil {
		return Stat{}, err
	}
	cont, obj, err := tc.k.peek(ctx, ce)
	if err != nil {
		return Stat{}, err
	}
	ls := lockOrdered(objLock{cont, false}, objLock{obj, false})
	defer ls.unlock()
	if err := verifyEntryLive(cont, obj); err != nil {
		return Stat{}, err
	}
	return tc.objectStatLocked(ctx, obj)
}

// objectStatLocked is ObjectStat's body once the object's lock is held (any
// mode) and liveness is verified; the ring executes it under a shared lock
// acquisition for a coalesced run of entries.
func (tc *ThreadCall) objectStatLocked(ctx tctx, obj object) (Stat, error) {
	h := obj.hdr()
	st := Stat{
		ID:         h.id,
		Type:       h.objType,
		Quota:      h.quota,
		Usage:      obj.footprint(),
		FixedQuota: h.fixedQuota,
		Immutable:  h.immutable,
		Descrip:    h.descrip,
		Metadata:   h.metadata,
	}
	if th, ok := obj.(*thread); ok {
		// Thread labels are not immutable; expose them only when
		// LT'ᴶ ⊑ LTᴶ.
		if th.lbl.LeqRaised(ctx.lbl) {
			st.Label = th.lbl
		} else {
			return Stat{}, ErrLabel
		}
	} else {
		st.Label = h.lbl
	}
	return st, nil
}

// ObjectSetMetadata overwrites the 64 bytes of user-defined metadata on an
// object the thread can modify.
func (tc *ThreadCall) ObjectSetMetadata(ce CEnt, md [MetadataSize]byte) error {
	ctx, err := tc.enter(scObjectSetMetadata)
	if err != nil {
		return err
	}
	cont, obj, err := tc.k.peek(ctx, ce)
	if err != nil {
		return err
	}
	ls := lockOrdered(objLock{cont, false}, objLock{obj, true})
	defer ls.unlock()
	if err := verifyEntryLive(cont, obj); err != nil {
		return err
	}
	h := obj.hdr()
	if h.immutable {
		return ErrImmutable
	}
	if !label.CanModify(ctx.lbl, effectiveLabel(obj)) {
		return ErrLabel
	}
	h.metadata = md
	h.bump()
	return nil
}

// ObjectSetImmutable irrevocably marks the object read-only.
func (tc *ThreadCall) ObjectSetImmutable(ce CEnt) error {
	ctx, err := tc.enter(scObjectSetImmutable)
	if err != nil {
		return err
	}
	cont, obj, err := tc.k.peek(ctx, ce)
	if err != nil {
		return err
	}
	ls := lockOrdered(objLock{cont, false}, objLock{obj, true})
	defer ls.unlock()
	if err := verifyEntryLive(cont, obj); err != nil {
		return err
	}
	if !label.CanModify(ctx.lbl, effectiveLabel(obj)) {
		return ErrLabel
	}
	obj.hdr().immutable = true
	obj.hdr().bump()
	return nil
}

// ObjectSetFixedQuota sets the fixed-quota flag on an object, which must be
// set before the object can be hard linked into additional containers and
// can never be cleared.
func (tc *ThreadCall) ObjectSetFixedQuota(ce CEnt) error {
	ctx, err := tc.enter(scObjectSetFixedQuota)
	if err != nil {
		return err
	}
	cont, obj, err := tc.k.peek(ctx, ce)
	if err != nil {
		return err
	}
	ls := lockOrdered(objLock{cont, false}, objLock{obj, true})
	defer ls.unlock()
	if err := verifyEntryLive(cont, obj); err != nil {
		return err
	}
	if !label.CanModify(ctx.lbl, effectiveLabel(obj)) {
		return ErrLabel
	}
	obj.hdr().fixedQuota = true
	obj.hdr().bump()
	return nil
}

// effectiveLabel is the label used for modify checks: gates use their gate
// label with ownership stripped to its storable form, threads their own
// label, everything else the object label.  The caller holds the object's
// lock when the object may be a thread.
func effectiveLabel(o object) label.Label {
	switch v := o.(type) {
	case *gate:
		return v.gateLabel.LowerStar()
	default:
		return o.hdr().lbl
	}
}
