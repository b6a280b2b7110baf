package kernel

import (
	"fmt"
	"sync/atomic"

	"histar/internal/label"
)

// Container snapshot/clone: O(metadata) sandbox creation.
//
// ContainerSnapshot captures an immutable image of a container subtree —
// containers, segments, gates, and address spaces, with their labels,
// quotas, and metadata — identified by a lineage hash over the captured
// state.  Segment contents are captured BY REFERENCE: the source segment's
// data slice is frozen (copy-on-write) at capture time, so a snapshot of a
// 64 MiB sandbox costs a subtree walk, not a 64 MiB copy.
//
// ContainerClone materializes a snapshot as a fresh subtree under a
// destination container: every object gets a fresh ID (internal references —
// container entries, address-space mappings, gate address spaces — are
// remapped), labels are rewritten through a caller-supplied category remap
// (how a golden image baked with a template user's categories becomes one
// user's private sandbox), and cloned segments share the frozen data slices
// COW until first write.  The clone takes object locks only on the
// destination container, so spawning a sandbox is O(metadata) regardless of
// how many bytes the image carries.
//
// When the boot environment attaches a SnapshotSink (the single-level
// store's bundle layer), snapshots are persisted as refcounted bundles and
// clones as store-side aliases, and every clone first validates the bundle's
// lineage — a clone of a bundle whose shared extent has rotted fails with a
// typed error instead of silently sharing bad bytes.
//
// Threads and devices are skipped by the walk: a snapshot is a passive image
// (programs, file data, directory segments), and golden images are baked
// quiescent.  Thread-local segments never appear in containers, so they are
// never captured.

// SnapshotObjectData is one captured segment handed to the SnapshotSink:
// the object's kernel ID, its (frozen, shared) contents, and its label.
type SnapshotObjectData struct {
	ID    uint64
	Data  []byte
	Label label.Label
}

// ClonePair maps one snapshotted segment to its clone for the sink's alias
// records, together with the label the clone was given.
type ClonePair struct {
	SrcID, DstID uint64
	Label        label.Label
}

// SnapshotSink is the persistence hook for container snapshots, implemented
// by the boot environment over the single-level store's bundle layer (the
// same pattern as the ring's Syncer and SetIntegritySource).  The kernel
// itself stays storage-agnostic.
type SnapshotSink interface {
	// Record persists the captured segments as a refcounted bundle and
	// returns the store-side lineage.
	Record(name string, objs []SnapshotObjectData) (uint64, error)
	// Validate checks that every extent the bundle pins still verifies;
	// a rotted bundle returns the store's typed corruption error.
	Validate(storeLineage uint64) error
	// Clone records store-side aliases for a clone's segments, sharing the
	// bundle's extents without copying.
	Clone(storeLineage uint64, pairs []ClonePair) error
	// Drop releases the bundle's pins when the snapshot is deleted.
	Drop(storeLineage uint64) error
}

// SetSnapshotSink attaches the snapshot persistence hook; call before the
// kernel is shared between threads.
func (k *Kernel) SetSnapshotSink(sink SnapshotSink) {
	k.snapMu.Lock()
	k.snapSink = sink
	k.snapMu.Unlock()
}

// snapObject is one captured object image.  Everything is immutable after
// capture; data aliases the frozen source slice.
type snapObject struct {
	id         ID
	typ        ObjectType
	lbl        label.Label
	quota      uint64
	fixedQuota bool
	immutable  bool
	descrip    string
	metadata   [MetadataSize]byte

	children   []ID     // container: child IDs in insertion order
	avoidTypes TypeMask // container

	data []byte // segment: frozen, shared

	gateLabel label.Label // gate
	gateClr   label.Label
	gateAS    CEnt
	entry     GateEntry
	closure   []byte

	mappings []mapping // address space
}

// Snapshot is one registered container snapshot.
type Snapshot struct {
	lineage      uint64
	storeLineage uint64 // 0 when no sink is attached
	name         string
	root         ID
	objs         map[ID]*snapObject
	order        []ID // walk order, root first (parents before children)
	bytes        uint64
}

// SnapshotInfo is a snapshot's externally visible description.
type SnapshotInfo struct {
	// Lineage identifies the snapshot; clones name it.
	Lineage uint64
	// StoreLineage is the persisted bundle's lineage (0 if none).
	StoreLineage uint64
	Name         string
	// Root is the ID the snapshotted subtree's root container had.
	Root ID
	// Objects counts captured objects; Bytes their total segment data.
	Objects int
	Bytes   uint64
}

// CloneResult describes one materialized clone.
type CloneResult struct {
	// Root is the fresh ID of the cloned subtree's root container.
	Root ID
	// Objects counts cloned objects.
	Objects int
	// SharedBytes is segment data shared COW with the snapshot;
	// CopiedBytes is what the clone itself duplicated (always 0 — copies
	// happen lazily, at first write, and show up in SnapshotStats).
	SharedBytes uint64
	CopiedBytes uint64
	// IDMap maps snapshotted object IDs to their clones' fresh IDs.
	IDMap map[ID]ID
}

// snapCounters tallies kernel-wide snapshot/clone activity.
type snapCounters struct {
	snapshots   atomic.Uint64
	clones      atomic.Uint64
	sharedBytes atomic.Uint64
	copiedBytes atomic.Uint64
	cowBreaks   atomic.Uint64
}

// SnapshotStats is a snapshot of the kernel-wide snapshot/clone counters.
type SnapshotStats struct {
	// Snapshots and Clones count successful captures and materializations.
	Snapshots uint64
	Clones    uint64
	// SharedBytes is the total segment data clones attached COW;
	// CopiedBytes the data actually duplicated by first writes
	// (CowBreaks counts those events).  SharedBytes/CopiedBytes is the
	// sharing ratio the golden-spawn fast-path exists for.
	SharedBytes uint64
	CopiedBytes uint64
	CowBreaks   uint64
	// Registered is the number of live snapshots.
	Registered int
}

// SnapshotStats returns the kernel-wide snapshot/clone counters.
func (k *Kernel) SnapshotStats() SnapshotStats {
	k.snapMu.Lock()
	n := len(k.snapshots)
	k.snapMu.Unlock()
	return SnapshotStats{
		Snapshots:   k.snap.snapshots.Load(),
		Clones:      k.snap.clones.Load(),
		SharedBytes: k.snap.sharedBytes.Load(),
		CopiedBytes: k.snap.copiedBytes.Load(),
		CowBreaks:   k.snap.cowBreaks.Load(),
		Registered:  n,
	}
}

// Snapshots lists the registered snapshots.
func (k *Kernel) Snapshots() []SnapshotInfo {
	k.snapMu.Lock()
	defer k.snapMu.Unlock()
	out := make([]SnapshotInfo, 0, len(k.snapshots))
	for _, s := range k.snapshots {
		out = append(out, s.info())
	}
	return out
}

// SnapshotByLineage returns the registered snapshot with the given lineage.
func (k *Kernel) SnapshotByLineage(lineage uint64) (SnapshotInfo, bool) {
	k.snapMu.Lock()
	defer k.snapMu.Unlock()
	s, ok := k.snapshots[lineage]
	if !ok {
		return SnapshotInfo{}, false
	}
	return s.info(), true
}

func (s *Snapshot) info() SnapshotInfo {
	return SnapshotInfo{
		Lineage:      s.lineage,
		StoreLineage: s.storeLineage,
		Name:         s.name,
		Root:         s.root,
		Objects:      len(s.order),
		Bytes:        s.bytes,
	}
}

// DropSnapshot unregisters a snapshot and releases its store bundle.  Live
// clones are unaffected: their frozen slices keep the shared data alive and
// their store aliases keep the shared extents referenced.
func (k *Kernel) DropSnapshot(lineage uint64) error {
	k.snapMu.Lock()
	s, ok := k.snapshots[lineage]
	if ok {
		delete(k.snapshots, lineage)
	}
	sink := k.snapSink
	k.snapMu.Unlock()
	if !ok {
		return ErrNotFound
	}
	if sink != nil && s.storeLineage != 0 {
		return sink.Drop(s.storeLineage)
	}
	return nil
}

// snapLineage hashes a snapshot's identity-relevant state (FNV-1a): the
// name, the walk order, and each object's type, size, and label.  Object IDs
// are included, so re-snapshotting the same subtree yields the same lineage
// while snapshots of distinct subtrees never collide in practice.
func snapLineage(name string, order []ID, objs map[ID]*snapObject) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime
	}
	for _, id := range order {
		o := objs[id]
		mix(uint64(o.id))
		mix(uint64(o.typ))
		mix(uint64(len(o.data)))
		for _, b := range o.lbl.AppendBinary(nil) {
			h ^= uint64(b)
			h *= prime
		}
	}
	if h == 0 {
		h = 1
	}
	return h
}

// ContainerSnapshot captures the subtree rooted at the container named by ce
// into a registered snapshot (container_snapshot).  The invoking thread must
// be able to observe every captured object; threads and devices in the
// subtree are skipped.  Segment data is shared COW from this moment on.
// When a persistence sink is attached, the captured segments are recorded as
// a store bundle and the snapshot is durable across remounts of the store.
func (tc *ThreadCall) ContainerSnapshot(ce CEnt, name string) (SnapshotInfo, error) {
	ctx, err := tc.enter(scContainerSnapshot)
	if err != nil {
		return SnapshotInfo{}, err
	}
	return tc.containerSnapshotCtx(ctx, ce, name)
}

// containerSnapshotCtx is ContainerSnapshot's body after syscall entry; the
// ring's OpSnapshot dispatch calls it with the batch's thread snapshot.
func (tc *ThreadCall) containerSnapshotCtx(ctx tctx, ce CEnt, name string) (SnapshotInfo, error) {
	k := tc.k
	_, obj, err := k.peek(ctx, ce)
	if err != nil {
		return SnapshotInfo{}, err
	}
	root, ok := obj.(*container)
	if !ok {
		return SnapshotInfo{}, ErrNotContainer
	}

	// Walk the subtree breadth-first, locking ONE object at a time (read
	// locks for metadata, a write lock on segments to set the frozen flag),
	// so the walk adds no multi-object lock acquisitions to the discipline.
	// The subtree must be quiescent for a perfectly consistent image — the
	// golden-image workflow bakes images before any clone runs — but the
	// walk itself is safe against concurrent mutation: each object's capture
	// is atomic under its own lock.
	objs := make(map[ID]*snapObject)
	var order []ID
	var bytes uint64
	queue := []ID{root.id}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		if _, seen := objs[id]; seen {
			continue
		}
		o, err := k.lookup(id)
		if err != nil {
			if id == root.id {
				return SnapshotInfo{}, err
			}
			continue // unlinked during the walk
		}
		h := o.hdr()
		if h.objType == ObjThread || h.objType == ObjDevice {
			continue
		}
		so := &snapObject{id: id, typ: h.objType}
		seg, isSeg := o.(*segment)
		if isSeg {
			h.mu.Lock()
		} else {
			h.mu.RLock()
		}
		live := !h.dead.Load()
		if live {
			so.lbl = h.lbl
			so.quota = h.quota
			so.fixedQuota = h.fixedQuota
			so.immutable = h.immutable
			so.descrip = h.descrip
			so.metadata = h.metadata
			switch v := o.(type) {
			case *container:
				so.children = v.list()
				so.avoidTypes = v.avoidTypes
			case *segment:
				seg.frozen = true
				so.data = seg.data
			case *gate:
				so.gateLabel = v.gateLabel
				so.gateClr = v.clearance
				so.gateAS = v.addressSpace
				so.entry = v.entry
				so.closure = v.closureArgs
			case *addressSpace:
				so.mappings = append([]mapping(nil), v.mappings...)
			}
		}
		if isSeg {
			h.mu.Unlock()
		} else {
			h.mu.RUnlock()
		}
		if !live {
			if id == root.id {
				return SnapshotInfo{}, ErrNoSuchObject
			}
			continue
		}
		// Labels of non-thread objects are immutable; the check needs no
		// lock and failing it fails the snapshot — a subtree image with
		// holes would clone incompletely and silently.
		if !label.CanObserve(ctx.lbl, so.lbl) {
			return SnapshotInfo{}, ErrLabel
		}
		objs[id] = so
		order = append(order, id)
		bytes += uint64(len(so.data))
		queue = append(queue, so.children...)
	}

	snap := &Snapshot{
		name:  name,
		root:  root.id,
		objs:  objs,
		order: order,
		bytes: bytes,
	}
	snap.lineage = snapLineage(name, order, objs)

	k.snapMu.Lock()
	if existing, ok := k.snapshots[snap.lineage]; ok {
		// Identical re-capture (same subtree, same state): idempotent.
		info := existing.info()
		k.snapMu.Unlock()
		return info, nil
	}
	sink := k.snapSink
	k.snapMu.Unlock()

	if sink != nil {
		var sobjs []SnapshotObjectData
		for _, id := range order {
			o := objs[id]
			if o.typ == ObjSegment {
				sobjs = append(sobjs, SnapshotObjectData{ID: uint64(id), Data: o.data, Label: o.lbl})
			}
		}
		sl, err := sink.Record(name, sobjs)
		if err != nil {
			return SnapshotInfo{}, fmt.Errorf("kernel: persisting snapshot bundle: %w", err)
		}
		snap.storeLineage = sl
	}

	k.snapMu.Lock()
	if existing, ok := k.snapshots[snap.lineage]; ok {
		info := existing.info()
		k.snapMu.Unlock()
		return info, nil
	}
	k.snapshots[snap.lineage] = snap
	k.snapMu.Unlock()
	k.snap.snapshots.Add(1)
	return snap.info(), nil
}

// remapLabel rewrites a label's categories through remap.  Pairs() returns a
// copy, so the source label is never mutated.
func remapLabel(l label.Label, remap map[label.Category]label.Category) label.Label {
	if len(remap) == 0 || l.NumExplicit() == 0 {
		return l
	}
	pairs := l.Pairs()
	changed := false
	for i := range pairs {
		if nc, ok := remap[pairs[i].Category]; ok {
			pairs[i].Category = nc
			changed = true
		}
	}
	if !changed {
		return l
	}
	return label.New(l.Default(), pairs...)
}

// ContainerClone materializes the snapshot with the given lineage as a fresh
// subtree linked into container dst (container_clone).  Every object gets a
// fresh ID; labels are rewritten through remap (template-user categories →
// this clone's user), and the invoking thread must be able to allocate at
// every rewritten label and to write dst.  Cloned segments share the
// snapshot's data COW — the call copies no segment bytes.  With a
// persistence sink attached the bundle's lineage is validated first (a
// rotted shared extent fails the clone with the store's typed error) and the
// clone's segments are recorded as store-side aliases.
func (tc *ThreadCall) ContainerClone(lineage uint64, dst ID, remap map[label.Category]label.Category) (CloneResult, error) {
	ctx, err := tc.enter(scContainerClone)
	if err != nil {
		return CloneResult{}, err
	}
	return tc.containerCloneCtx(ctx, lineage, dst, remap)
}

// containerCloneCtx is ContainerClone's body after syscall entry; the ring's
// OpClone dispatch calls it with the batch's thread snapshot.
func (tc *ThreadCall) containerCloneCtx(ctx tctx, lineage uint64, dst ID, remap map[label.Category]label.Category) (CloneResult, error) {
	k := tc.k
	k.snapMu.Lock()
	snap, ok := k.snapshots[lineage]
	sink := k.snapSink
	k.snapMu.Unlock()
	if !ok {
		return CloneResult{}, ErrNotFound
	}
	if sink != nil && snap.storeLineage != 0 {
		// Never silently share rotted bytes: a bundle whose extents fail
		// verification refuses to clone.  The store's typed error
		// (ErrQuarantined / ErrCorrupt) is preserved in the chain.
		if err := sink.Validate(snap.storeLineage); err != nil {
			return CloneResult{}, fmt.Errorf("%w: snapshot %#x failed bundle validation: %w", ErrCorrupt, lineage, err)
		}
	}
	dest, err := k.lookupContainer(dst)
	if err != nil {
		return CloneResult{}, err
	}
	if !label.CanModify(ctx.lbl, dest.lbl) {
		return CloneResult{}, ErrLabel
	}

	// Phase 1, no locks: allocate fresh IDs and validate every rewritten
	// label against the invoking thread's privileges.
	idMap := make(map[ID]ID, len(snap.order))
	for _, id := range snap.order {
		idMap[id] = k.newID()
	}
	remapCE := func(ce CEnt) CEnt {
		if n, ok := idMap[ce.Container]; ok {
			ce.Container = n
		}
		if n, ok := idMap[ce.Object]; ok {
			ce.Object = n
		}
		return ce
	}
	labels := make(map[ID]label.Label, len(snap.order))
	for _, id := range snap.order {
		so := snap.objs[id]
		nl := remapLabel(so.lbl, remap)
		if dest.avoidTypes.Has(so.typ) {
			return CloneResult{}, ErrAvoidType
		}
		if !label.CanAllocate(ctx.lbl, ctx.clearance, nl) {
			return CloneResult{}, ErrLabel
		}
		labels[id] = nl
		if so.typ == ObjGate {
			// Same bounds GateCreate enforces for the rewritten gate label.
			gl := remapLabel(so.gateLabel, remap)
			if !ctx.lbl.Leq(gl) || !gl.LowerStar().Leq(ctx.clearance) ||
				!remapLabel(so.gateClr, remap).Leq(ctx.clearance) {
				return CloneResult{}, ErrLabel
			}
		}
	}

	// Phase 2, still no locks: build the whole subtree as unpublished
	// objects.  Nothing can reach them until they are inserted, so no
	// object locks are needed; internal references go through idMap.
	// refCount reproduces hard-link structure: an object linked from two
	// snapshotted containers keeps two links in the clone.  parentOf maps
	// each snapshotted container to its snapshotted parent (walk order puts
	// parents first, so the first link wins, matching the walk).
	refCount := make(map[ID]int, len(snap.order))
	parentOf := make(map[ID]ID, len(snap.order))
	for _, id := range snap.order {
		so := snap.objs[id]
		for _, child := range so.children {
			if _, ok := idMap[child]; !ok {
				continue
			}
			refCount[child]++
			if _, ok := parentOf[child]; !ok {
				parentOf[child] = id
			}
		}
	}
	refCount[snap.root]++ // the link dest will hold
	var built []object
	var shared uint64
	rootQuota := snap.objs[snap.root].quota
	for _, id := range snap.order {
		so := snap.objs[id]
		var o object
		var childQuota uint64
		switch so.typ {
		case ObjContainer:
			nc := &container{entries: make(map[ID]bool), avoidTypes: so.avoidTypes}
			if id == snap.root {
				nc.parent = dst
			} else {
				nc.parent = idMap[parentOf[id]]
			}
			for _, child := range so.children {
				nid, ok := idMap[child]
				if !ok {
					continue // skipped (thread/device) or unlinked mid-walk
				}
				nc.link(nid)
				// Reproduce the charge the child's creation made against
				// this container, so quota accounting inside the clone
				// matches a from-scratch build.
				childQuota += snap.objs[child].quota
			}
			o = nc
		case ObjSegment:
			ns := &segment{data: so.data, frozen: true}
			shared += uint64(len(so.data))
			o = ns
		case ObjGate:
			o = &gate{
				gateLabel:    remapLabel(so.gateLabel, remap),
				clearance:    remapLabel(so.gateClr, remap),
				addressSpace: remapCE(so.gateAS),
				entry:        so.entry,
				closureArgs:  so.closure,
			}
		case ObjAddressSpace:
			na := &addressSpace{}
			for _, m := range so.mappings {
				m.Seg = remapCE(m.Seg)
				na.mappings = append(na.mappings, m)
			}
			o = na
		default:
			continue
		}
		h := o.hdr()
		h.id = idMap[id]
		h.objType = so.typ
		h.lbl = labels[id]
		h.quota = so.quota
		h.fixedQuota = so.fixedQuota
		h.immutable = so.immutable
		h.descrip = so.descrip
		h.metadata = so.metadata
		h.refs = refCount[id]
		h.usage = o.footprint() + childQuota
		built = append(built, o)
	}

	// Phase 3: publish under the destination container's lock — the only
	// multi-object-visible step, and the only lock the clone holds.
	dest.mu.Lock()
	if !liveLocked(dest) {
		dest.mu.Unlock()
		return CloneResult{}, ErrNoSuchObject
	}
	if dest.immutable {
		dest.mu.Unlock()
		return CloneResult{}, ErrImmutable
	}
	if err := k.charge(dest, rootQuota); err != nil {
		dest.mu.Unlock()
		return CloneResult{}, err
	}
	for _, o := range built {
		k.insert(o)
	}
	dest.link(idMap[snap.root])
	dest.mu.Unlock()

	// Phase 4: store-side aliases, no kernel locks held.  A sink failure
	// rolls the published clone back so callers never see a half-durable
	// sandbox.
	if sink != nil && snap.storeLineage != 0 {
		var pairs []ClonePair
		for _, id := range snap.order {
			so := snap.objs[id]
			if so.typ == ObjSegment {
				pairs = append(pairs, ClonePair{SrcID: uint64(id), DstID: uint64(idMap[id]), Label: labels[id]})
			}
		}
		if err := sink.Clone(snap.storeLineage, pairs); err != nil {
			tc.unlinkClone(dest, idMap[snap.root], rootQuota)
			return CloneResult{}, fmt.Errorf("kernel: recording clone aliases: %w", err)
		}
	}

	k.snap.clones.Add(1)
	k.snap.sharedBytes.Add(shared)
	return CloneResult{
		Root:        idMap[snap.root],
		Objects:     len(built),
		SharedBytes: shared,
		IDMap:       idMap,
	}, nil
}

// unlinkClone tears down a just-published clone after a sink failure: unlink
// the root from dest, refund its quota, and drain the subtree one object at
// a time (the standard deallocation shape).
func (tc *ThreadCall) unlinkClone(dest *container, root ID, quota uint64) {
	k := tc.k
	o, err := k.lookup(root)
	if err != nil {
		return
	}
	var orphans []ID
	ls := lockOrdered(objLock{dest, true}, objLock{o, true})
	if liveLocked(dest) && dest.entries[root] {
		dest.unlink(root)
		k.refund(dest, quota)
		h := o.hdr()
		h.refs--
		if h.refs <= 0 {
			orphans = k.deallocLocked(o)
		}
	}
	ls.unlock()
	k.releaseRefs(orphans)
}
