package kernel

import (
	"histar/internal/label"
)

// PageSize is the simulated page size.
const PageSize = 4096

// Mapping is the externally visible form of an address-space entry:
// VA → 〈segment container entry, offset, npages, flags〉.
type Mapping struct {
	VA     uint64
	Seg    CEnt
	Offset uint64
	NPages uint64
	Flags  MapFlags
}

// AddressSpaceCreate creates an address space object with label l in
// container d.
func (tc *ThreadCall) AddressSpaceCreate(d ID, l label.Label, descrip string) (ID, error) {
	ctx, err := tc.enter(scASCreate)
	if err != nil {
		return NilID, err
	}
	if !label.ValidObjectLabel(l) {
		return NilID, ErrInvalid
	}
	cont, err := tc.k.lookupContainer(d)
	if err != nil {
		return NilID, err
	}
	if cont.avoidTypes.Has(ObjAddressSpace) {
		return NilID, ErrAvoidType
	}
	if !label.CanModify(ctx.lbl, cont.lbl) {
		return NilID, ErrLabel
	}
	if !label.CanAllocate(ctx.lbl, ctx.clearance, l) {
		return NilID, ErrLabel
	}
	const quota = 64 * 1024
	a := &addressSpace{
		header: header{
			id:      tc.k.newID(),
			objType: ObjAddressSpace,
			lbl:     l,
			quota:   quota,
			descrip: truncDescrip(descrip),
			refs:    1,
		},
	}
	a.usage = a.footprint()
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
	tc.k.insert(a)
	cont.link(a.id)
	return a.id, nil
}

// resolveAS resolves ce to its container and address space with no locks
// held.
func (tc *ThreadCall) resolveAS(ctx tctx, ce CEnt) (*container, *addressSpace, error) {
	cont, obj, err := tc.k.peek(ctx, ce)
	if err != nil {
		return nil, nil, err
	}
	a, ok := obj.(*addressSpace)
	if !ok {
		return nil, nil, ErrWrongType
	}
	return cont, a, nil
}

// AddressSpaceSet replaces the mappings of the address space named by ce.
// The invoking thread must be able to modify the address space
// (LT ⊑ LA ⊑ LTᴶ).
func (tc *ThreadCall) AddressSpaceSet(ce CEnt, maps []Mapping) error {
	ctx, err := tc.enter(scASSet)
	if err != nil {
		return err
	}
	cont, a, err := tc.resolveAS(ctx, ce)
	if err != nil {
		return err
	}
	if !label.CanModify(ctx.lbl, a.lbl) {
		return ErrLabel
	}
	ls := lockOrdered(objLock{cont, false}, objLock{a, true})
	defer ls.unlock()
	if err := verifyEntryLive(cont, a); err != nil {
		return err
	}
	if a.immutable {
		return ErrImmutable
	}
	a.mappings = a.mappings[:0]
	for _, m := range maps {
		if m.VA%PageSize != 0 {
			return ErrInvalid
		}
		a.mappings = append(a.mappings, mapping{
			VA: m.VA, Seg: m.Seg, Offset: m.Offset, NPages: m.NPages, Flags: m.Flags,
		})
	}
	a.bump()
	return nil
}

// AddressSpaceGet returns the current mappings of the address space named by
// ce.  The invoking thread must be able to observe it (LA ⊑ LTᴶ).
func (tc *ThreadCall) AddressSpaceGet(ce CEnt) ([]Mapping, error) {
	ctx, err := tc.enter(scASGet)
	if err != nil {
		return nil, err
	}
	cont, a, err := tc.resolveAS(ctx, ce)
	if err != nil {
		return nil, err
	}
	if !label.CanObserve(ctx.lbl, a.lbl) {
		return nil, ErrLabel
	}
	ls := lockOrdered(objLock{cont, false}, objLock{a, false})
	defer ls.unlock()
	if err := verifyEntryLive(cont, a); err != nil {
		return nil, err
	}
	out := make([]Mapping, 0, len(a.mappings))
	for _, m := range a.mappings {
		out = append(out, Mapping{VA: m.VA, Seg: m.Seg, Offset: m.Offset, NPages: m.NPages, Flags: m.Flags})
	}
	return out, nil
}

// AddressSpaceAddMapping appends one mapping without replacing the rest.
func (tc *ThreadCall) AddressSpaceAddMapping(ce CEnt, m Mapping) error {
	ctx, err := tc.enter(scASAddMapping)
	if err != nil {
		return err
	}
	cont, a, err := tc.resolveAS(ctx, ce)
	if err != nil {
		return err
	}
	if !label.CanModify(ctx.lbl, a.lbl) {
		return ErrLabel
	}
	if m.VA%PageSize != 0 {
		return ErrInvalid
	}
	ls := lockOrdered(objLock{cont, false}, objLock{a, true})
	defer ls.unlock()
	if err := verifyEntryLive(cont, a); err != nil {
		return err
	}
	if a.immutable {
		return ErrImmutable
	}
	a.mappings = append(a.mappings, mapping{VA: m.VA, Seg: m.Seg, Offset: m.Offset, NPages: m.NPages, Flags: m.Flags})
	a.bump()
	return nil
}

// AddressSpaceRemoveMapping removes the mapping that starts at va.
func (tc *ThreadCall) AddressSpaceRemoveMapping(ce CEnt, va uint64) error {
	ctx, err := tc.enter(scASRemoveMapping)
	if err != nil {
		return err
	}
	cont, a, err := tc.resolveAS(ctx, ce)
	if err != nil {
		return err
	}
	if !label.CanModify(ctx.lbl, a.lbl) {
		return ErrLabel
	}
	ls := lockOrdered(objLock{cont, false}, objLock{a, true})
	defer ls.unlock()
	if err := verifyEntryLive(cont, a); err != nil {
		return err
	}
	if a.immutable {
		return ErrImmutable
	}
	for i, m := range a.mappings {
		if m.VA == va {
			a.mappings = append(a.mappings[:i], a.mappings[i+1:]...)
			a.bump()
			return nil
		}
	}
	return ErrNoMapping
}

// SetFaultHandler registers a user-mode page-fault handler on the address
// space, invoked when a memory access fails its checks.  By default a fault
// kills the process (the user-level library's choice).
func (tc *ThreadCall) SetFaultHandler(ce CEnt, h func(va uint64, write bool, err error)) error {
	ctx, err := tc.enter(scASSetFaultHandler)
	if err != nil {
		return err
	}
	cont, a, err := tc.resolveAS(ctx, ce)
	if err != nil {
		return err
	}
	if !label.CanModify(ctx.lbl, a.lbl) {
		return ErrLabel
	}
	ls := lockOrdered(objLock{cont, false}, objLock{a, true})
	defer ls.unlock()
	if err := verifyEntryLive(cont, a); err != nil {
		return err
	}
	if a.immutable {
		return ErrImmutable
	}
	a.faultHandler = h
	return nil
}

// MemRead simulates a load through the invoking thread's address space.
// The kernel looks up the faulting address, finds the backing segment, and
// performs the page-fault label checks: the thread must be able to read the
// mapping's container and segment (LD ⊑ LTᴶ and LO ⊑ LTᴶ).
func (tc *ThreadCall) MemRead(va uint64, n int) ([]byte, error) {
	ctx, err := tc.enter(scMemRead)
	if err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, ErrInvalid
	}
	seg, off, err := tc.pageFault(ctx, va, n, false)
	if err != nil {
		return nil, err
	}
	seg.mu.RLock()
	defer seg.mu.RUnlock()
	if !liveLocked(seg) {
		return nil, ErrNoSuchObject
	}
	if off < 0 { // int overflow from a huge mapping offset
		return nil, ErrInvalid
	}
	// Clamp without computing off+n, which could overflow int.
	if off > len(seg.data) {
		off = len(seg.data)
	}
	end := len(seg.data)
	if n < end-off {
		end = off + n
	}
	out := make([]byte, end-off)
	copy(out, seg.data[off:end])
	return out, nil
}

// MemWrite simulates a store through the invoking thread's address space;
// the mapping must include write permission and the thread must additionally
// be able to modify the segment (LT ⊑ LO).
func (tc *ThreadCall) MemWrite(va uint64, data []byte) error {
	ctx, err := tc.enter(scMemWrite)
	if err != nil {
		return err
	}
	seg, off, err := tc.pageFault(ctx, va, len(data), true)
	if err != nil {
		return err
	}
	seg.mu.Lock()
	defer seg.mu.Unlock()
	if !liveLocked(seg) {
		return ErrNoSuchObject
	}
	if seg.immutable {
		// Rechecked under the write lock; the fault handler (if any) was
		// already notified by pageFault when the flag was set earlier.
		return ErrImmutable
	}
	end := off + len(data)
	if end < off || off < 0 { // int overflow from a huge mapping offset
		return ErrQuota
	}
	if end > len(seg.data) && uint64(end)+128 > seg.quota {
		return ErrQuota
	}
	seg.unshareLocked(tc.k, end)
	copy(seg.data[off:], data)
	seg.usage = seg.footprint()
	seg.bump()
	return nil
}

// pageFault resolves a virtual address through the thread's address space,
// applying the label checks of Section 3.4.  It returns the backing segment
// and the byte offset within it; the caller locks the segment to touch its
// data.  On failure the address space's user-mode fault handler, if any, is
// notified (outside the error return so callers still see the error); the
// handler runs with no kernel locks held, so it may issue system calls.
func (tc *ThreadCall) pageFault(ctx tctx, va uint64, n int, write bool) (*segment, int, error) {
	seg, off, err := tc.pageFaultInner(ctx, va, n, write)
	if err != nil {
		if ctx.as.Object != NilID {
			if aso, lerr := tc.k.lookup(ctx.as.Object); lerr == nil {
				if as, ok := aso.(*addressSpace); ok {
					as.mu.RLock()
					h := as.faultHandler
					as.mu.RUnlock()
					if h != nil {
						h(va, write, err)
					}
				}
			}
		}
	}
	return seg, off, err
}

func (tc *ThreadCall) pageFaultInner(ctx tctx, va uint64, n int, write bool) (*segment, int, error) {
	if ctx.as.Object == NilID {
		return nil, 0, ErrNoMapping
	}
	aso, err := tc.k.lookup(ctx.as.Object)
	if err != nil {
		return nil, 0, err
	}
	as, ok := aso.(*addressSpace)
	if !ok {
		return nil, 0, ErrWrongType
	}
	// The thread must be able to use its address space at all.
	if !label.CanObserve(ctx.lbl, as.lbl) {
		return nil, 0, ErrLabel
	}
	// Find the covering mapping and copy it out; the syscall linearizes at
	// this point, so a concurrent remapping simply lands before or after it.
	var m mapping
	found := false
	as.mu.RLock()
	for _, cand := range as.mappings {
		if va >= cand.VA && va < cand.VA+cand.NPages*PageSize {
			m = cand
			found = true
			break
		}
	}
	as.mu.RUnlock()
	if !found {
		return nil, 0, ErrNoMapping
	}
	if write && m.Flags&MapWrite == 0 {
		return nil, 0, ErrAccess
	}
	if !write && m.Flags&MapRead == 0 {
		return nil, 0, ErrAccess
	}
	// Thread-local segment mapping: always accessible to its owner.
	if m.Flags&MapThreadLocal != 0 {
		return ctx.t.localSegment, int(va - m.VA), nil
	}
	// Page-fault label checks: read container and segment, plus modify
	// for writes.  Container and segment labels are immutable.
	cont, err := tc.k.lookupContainer(m.Seg.Container)
	if err != nil {
		return nil, 0, err
	}
	if !label.CanObserve(ctx.lbl, cont.lbl) {
		return nil, 0, ErrLabel
	}
	if err := verifyLinkedBrief(cont, m.Seg.Object); err != nil {
		return nil, 0, err
	}
	so, err := tc.k.lookup(m.Seg.Object)
	if err != nil {
		return nil, 0, err
	}
	seg, ok := so.(*segment)
	if !ok {
		return nil, 0, ErrWrongType
	}
	if !label.CanObserve(ctx.lbl, seg.lbl) {
		return nil, 0, ErrLabel
	}
	if write {
		seg.mu.RLock()
		immutable := seg.immutable
		seg.mu.RUnlock()
		if immutable {
			return nil, 0, ErrImmutable
		}
		if !ctx.lbl.Leq(seg.lbl) {
			return nil, 0, ErrLabel
		}
	}
	return seg, int(uint64(va-m.VA) + m.Offset), nil
}
