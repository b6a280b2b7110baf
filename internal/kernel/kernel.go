// Package kernel implements the HiStar kernel object model and system-call
// interface (Zeldovich et al., OSDI 2006, Sections 3 and 4) as a user-space
// simulation.  The six kernel object types — segments, threads, address
// spaces, gates, containers, and devices — are provided with the exact
// information-flow checks the paper specifies; "hardware" concerns (the MMU,
// the disk, the NIC) are modelled by sibling packages.
//
// The central property the interface maintains (Section 3):
//
//	The contents of object A can only affect object B if, for every
//	category c in which A is more tainted than B, a thread owning c takes
//	part in the process.
//
// Every system call is a method on ThreadCall, the per-thread syscall
// context, so each call is checked against the invoking thread's label and
// clearance.  Threads that issue many calls can batch them through a
// syscall ring (NewRing): one kernel entry executes a whole submission
// queue, including ring-native gate calls via OpGateEnter — the full
// Section 3.5 transfer plus a chained read checked against the post-entry
// label.  The ring's protocol and ordering rules are documented in ring.go.
//
// # Locking discipline
//
// System calls run concurrently; there is no global kernel lock.  The object
// table is sharded by object-ID bits, each shard holding a map guarded by its
// own sync.RWMutex, and every object additionally carries a per-object
// sync.RWMutex in its header guarding the object's mutable state.  The rules,
// in order of lock acquisition:
//
//  1. A syscall first snapshots the invoking thread's state (label,
//     clearance, address space, liveness) under the thread's read lock and
//     releases it; all subsequent checks use the snapshot, so a syscall's
//     label checks are evaluated against the thread's label as of syscall
//     entry, exactly as in the real kernel.
//  2. Object resolution (shard map lookups and label checks against
//     *immutable* object labels) happens with no object locks held.
//  3. The objects a syscall touches are then locked together in ascending
//     object-ID order — read locks for observation, write locks for
//     mutation — and container membership and object liveness are
//     re-verified under those locks before any mutation.
//  4. Shard locks are only ever acquired with either no object locks held
//     (lookup) or nested inside object locks (insert on create, delete on
//     deallocate); an object lock is never acquired while a shard lock is
//     held.
//  5. Futex-table shard locks nest inside object locks and never the other
//     way around.  The ID and category allocators are self-synchronized
//     leaves.
//  6. No object lock is held while calling the store (Syncer, SnapshotSink,
//     integrity source): it calls SegmentContents under its entry locks.
//
// Recursive deallocation (unreferencing a container subtree) never holds two
// tree levels' locks at once: an object that drops to zero references is
// marked dead and unlinked from the table under its own write lock, its
// children are collected into a worklist, and the worklist is drained one
// object at a time after the triggering syscall has released its locks.
//
// # Syscall ring
//
// Besides direct calls, a thread may batch system calls through a Ring
// (ring.go): Submit queues entries, Wait snapshots the thread once, executes
// every entry through the same resolve/check/lockOrdered paths, and returns
// per-entry completions in submission order.  Chains (the Chain flag) fix
// intra-chain order with skip-on-error; independent chains may be reordered
// by target object ID so same-object entries share one lock acquisition.  A
// run holds at most one lockOrdered set at a time and OpSync dispatch takes
// no object locks, so the ring introduces no new lock-order edges.  Wait
// records one ring_submit syscall per batch and each entry records its own
// syscall (OpSync as ring_sync), so batched and direct traffic stay
// distinguishable in SyscallCounts; RingStats aggregates depth, coalescing,
// and sync-group fan-in.
//
// # Container snapshot and clone (golden images)
//
// ContainerSnapshot captures a container subtree — containers, segments,
// gates, address spaces — as an immutable in-kernel snapshot under a
// deterministic lineage ID, freezing every captured segment's buffer for
// copy-on-write (snapshot.go); OpSnapshot/OpClone make both operations
// ring-native so spawns batch.  ContainerClone materializes a snapshot
// under a destination container in O(metadata) with these ID-remap rules:
// every captured object gets a fresh object ID; intra-subtree references
// (container links, gate entry objects, address-space segment mappings)
// are rewritten through the old→new map; references that leave the subtree
// keep their original IDs; and a caller-supplied category remap rewrites
// labels, clearances, and gate verify labels pair-by-pair — the
// golden-image pattern maps a template user's ur/uw categories to the
// spawning user's, with CanAllocate enforced per remapped label, so a
// clone can never mint authority its creator could not hold.  Segment data
// is never copied at clone time: clone and master share the frozen buffer
// until either side's first write breaks COW for that segment alone.  When
// a persistent store is attached, a SnapshotSink mirrors snapshots as
// refcounted store bundles and validates lineage (CRC walk) before every
// clone, so restoring from a rotted image fails typed instead of fanning
// bad bytes into every sandbox.  The golden-spawn flow end to end:
// unixlib.BakeGolden builds and snapshots a template sandbox once;
// webd's session cache, on a cold login, issues one ContainerClone into
// the worker's process container (sharing all read-only data COW) instead
// of rebuilding the sandbox from scratch.
//
// Read-mostly syscalls (segment reads, resolution, stat, list) take only
// read locks, so they proceed in parallel across — and within — shards.
// Mutating syscalls take write locks only on the objects they mutate.
//
// # Label checks
//
// Every check calls the label package directly — label.CanObserve,
// label.CanModify, Label.Leq and friends — on the thread's label snapshot
// and the object's immutable label.  Each is one allocation-free merge over
// two canonical slices, so a check takes no lock and shares no state between
// threads.  The paper's kernel caches comparisons between immutable labels
// (Section 4); here the merge costs less than a cache lookup would, so the
// kernel keeps no cache.
package kernel

import (
	"fmt"
	"math/bits"
	"sync"

	"histar/internal/label"
)

// Config controls optional kernel behaviour.
type Config struct {
	// Seed keys the object-ID and category generators so simulations are
	// reproducible.
	Seed uint64
	// RootQuota is the quota of the root container; 0 means infinite.
	RootQuota uint64
	// ObjectTableShards overrides the number of object-table shards (rounded
	// down to a power of two).  0 picks the default; 1 forces the whole
	// table through a single shard lock, used by the scaling ablation
	// benchmarks.
	ObjectTableShards int
}

// defaultObjShards keeps shard-lock collisions negligible at any realistic
// GOMAXPROCS while staying cheap to iterate for ObjectCount.
const defaultObjShards = 64

// objShard is one shard of the object table.
type objShard struct {
	mu sync.RWMutex
	m  map[ID]object
	_  [96]byte // round the struct to 128 bytes so adjacent shards never share a cache line
}

// Kernel is a single simulated HiStar machine: an object table rooted at the
// root container plus the generators and counters the kernel maintains.
type Kernel struct {
	shards    []objShard
	shardMask uint64
	rootID    ID

	ids  *label.Allocator
	cats *label.Allocator

	futexes [futexShardCount]futexShard

	syscalls syscallCounters

	// ring tallies batched-submission activity (see ring.go).
	ring ringCounters

	// netMu guards the bootstrap device list.
	netMu      sync.Mutex
	netDevices []ID

	// integMu guards the storage-integrity source the boot environment may
	// attach (see SetIntegritySource).
	integMu         sync.Mutex
	integritySource func() StorageIntegrity

	// snapMu guards the container-snapshot registry and the optional
	// persistence sink; snap tallies snapshot/clone activity (snapshot.go).
	snapMu    sync.Mutex
	snapshots map[uint64]*Snapshot
	snapSink  SnapshotSink
	snap      snapCounters
}

// New boots a kernel: it creates the object table and the root container.
// The root container is labeled {1} and has an infinite quota unless
// cfg.RootQuota says otherwise.
func New(cfg Config) *Kernel {
	nShards := cfg.ObjectTableShards
	if nShards <= 0 {
		nShards = defaultObjShards
	}
	// Round down to a power of two so shard selection is a mask.
	nShards = 1 << (bits.Len(uint(nShards)) - 1)
	k := &Kernel{
		shards:    make([]objShard, nShards),
		shardMask: uint64(nShards - 1),
		ids:       label.NewAllocator(cfg.Seed ^ 0x9e3779b97f4a7c15),
		cats:      label.NewAllocator(cfg.Seed),
		snapshots: make(map[uint64]*Snapshot),
	}
	for i := range k.shards {
		k.shards[i].m = make(map[ID]object)
	}
	for i := range k.futexes {
		k.futexes[i].m = make(map[futexKey]*futexQueue)
	}
	rootQuota := cfg.RootQuota
	if rootQuota == 0 {
		rootQuota = QuotaInfinite
	}
	root := &container{
		header: header{
			id:      k.newID(),
			objType: ObjContainer,
			lbl:     label.New(label.L1),
			quota:   rootQuota,
			descrip: "root container",
			refs:    1, // the root container is always referenced
		},
		parent:  NilID,
		entries: make(map[ID]bool),
	}
	root.usage = root.footprint()
	k.insert(root)
	k.rootID = root.id
	return k
}

// RootContainer returns the object ID of the root container.
func (k *Kernel) RootContainer() ID { return k.rootID }

// CategoryAllocator exposes the kernel's category namer for formatting
// labels in diagnostics; it does not grant any privilege.
func (k *Kernel) CategoryAllocator() *label.Allocator { return k.cats }

// newID allocates a fresh 61-bit object ID.
func (k *Kernel) newID() ID { return ID(k.ids.Alloc()) }

// ---------------------------------------------------------------------------
// Sharded object table.
// ---------------------------------------------------------------------------

// shardFor picks the table shard for an object ID.  IDs come from an
// encrypted counter, so they are already uniformly distributed; the multiply
// spreads them further in the single-shard-adjacent configurations.
func (k *Kernel) shardFor(id ID) *objShard {
	h := uint64(id) * 0x9e3779b97f4a7c15
	return &k.shards[(h>>48)&k.shardMask]
}

// insert adds a fully constructed object to the table.  It may be called
// with object locks held (shard locks nest inside object locks).
func (k *Kernel) insert(o object) {
	s := k.shardFor(o.hdr().id)
	s.mu.Lock()
	s.m[o.hdr().id] = o
	s.mu.Unlock()
}

// remove deletes an object from the table.  Like insert it may run inside
// object locks.
func (k *Kernel) remove(id ID) {
	s := k.shardFor(id)
	s.mu.Lock()
	delete(s.m, id)
	s.mu.Unlock()
}

// lookup returns the live object with the given ID.  No object locks are
// taken; liveness is re-checked under the object's lock by mutating callers.
func (k *Kernel) lookup(id ID) (object, error) {
	s := k.shardFor(id)
	s.mu.RLock()
	o, ok := s.m[id]
	s.mu.RUnlock()
	if !ok || o.hdr().dead.Load() {
		return nil, ErrNoSuchObject
	}
	return o, nil
}

func (k *Kernel) lookupContainer(id ID) (*container, error) {
	o, err := k.lookup(id)
	if err != nil {
		return nil, err
	}
	c, ok := o.(*container)
	if !ok {
		return nil, ErrNotContainer
	}
	return c, nil
}

// ---------------------------------------------------------------------------
// Ordered object locking.
// ---------------------------------------------------------------------------

// objLock pairs an object with the lock mode a syscall needs on it.
type objLock struct {
	o     object
	write bool
}

// lockSet is the fixed-size set of object locks a syscall holds; it lives
// on the caller's stack so the hot path performs no allocation.
type lockSet struct {
	objs [4]objLock
	n    int
}

// lockOrdered acquires the given objects' locks in ascending object-ID
// order, deduplicating repeated objects (a write request wins over a read).
// Every multi-object syscall goes through it, which is what keeps the
// kernel deadlock-free; release with unlock.
func lockOrdered(locks ...objLock) lockSet {
	// Insertion sort: syscalls lock at most four objects.
	for i := 1; i < len(locks); i++ {
		for j := i; j > 0 && locks[j].o.hdr().id < locks[j-1].o.hdr().id; j-- {
			locks[j], locks[j-1] = locks[j-1], locks[j]
		}
	}
	// Dedup into the fixed array; write mode wins.
	var ls lockSet
	for _, l := range locks {
		if ls.n > 0 && ls.objs[ls.n-1].o == l.o {
			ls.objs[ls.n-1].write = ls.objs[ls.n-1].write || l.write
			continue
		}
		ls.objs[ls.n] = l
		ls.n++
	}
	for i := 0; i < ls.n; i++ {
		if ls.objs[i].write {
			ls.objs[i].o.hdr().mu.Lock()
		} else {
			ls.objs[i].o.hdr().mu.RLock()
		}
	}
	return ls
}

// unlock releases the set's locks in reverse acquisition order.
func (ls *lockSet) unlock() {
	for i := ls.n - 1; i >= 0; i-- {
		if ls.objs[i].write {
			ls.objs[i].o.hdr().mu.Unlock()
		} else {
			ls.objs[i].o.hdr().mu.RUnlock()
		}
	}
}

// liveLocked reports whether o is still live; the caller holds o's lock.
func liveLocked(o object) bool { return !o.hdr().dead.Load() }

// verifyEntryLive re-verifies, under held locks, that cont still links obj
// (or is obj) and that obj is live — the standard step-3 check of the
// locking discipline after the lock-free resolution phase.
func verifyEntryLive(cont *container, obj object) error {
	if err := cont.verifyLinked(obj.hdr().id); err != nil {
		return err
	}
	if !liveLocked(obj) {
		return ErrNoSuchObject
	}
	return nil
}

// verifyLinkedBrief checks membership under a transient read lock on cont,
// for syscalls that only need the link to have existed at resolution time
// and take no further locks on the pair.
func verifyLinkedBrief(cont *container, id ID) error {
	cont.mu.RLock()
	err := cont.verifyLinked(id)
	cont.mu.RUnlock()
	return err
}

// StorageIntegrity is the persistent storage layer's corruption accounting
// as surfaced through kernel stats: detections, quarantines, scrub
// progress, and whether the last mount had to take a recovery fallback.
// The kernel itself is storage-agnostic; the boot environment attaches a
// source when a single-level store is present (the same pattern as the
// ring's Syncer hook).
type StorageIntegrity struct {
	CorruptionsDetected uint64
	QuarantineEvents    uint64
	QuarantinedNow      int
	ScrubPasses         uint64
	ScrubBytesVerified  uint64
	DegradedMount       bool

	// Checkpoint-liveness accounting (the incremental checkpoint protocol):
	// SealStallTotalNs/SealStallMaxNs measure the brief exclusive seal —
	// the only moment a checkpoint stops the world — and the byte counters
	// decompose checkpoint write amplification: BytesHome is sealed object
	// data written to home segments, BytesCleaned what the segment cleaner
	// copied, MetaBytesWritten the serialized snapshots.  The Segs* trio
	// counts data-region segments allocated, compacted, and freed.
	Checkpoints      uint64
	SealStallTotalNs int64
	SealStallMaxNs   int64
	BytesHome        uint64
	BytesCleaned     uint64
	MetaBytesWritten uint64
	SegsAllocated    uint64
	SegsCleaned      uint64
	SegsFreed        uint64
}

// SetIntegritySource attaches the storage layer's integrity-snapshot
// provider; call before the kernel is shared between threads.
func (k *Kernel) SetIntegritySource(src func() StorageIntegrity) {
	k.integMu.Lock()
	k.integritySource = src
	k.integMu.Unlock()
}

// StorageIntegrityStats reports the attached storage layer's corruption
// accounting; ok is false when no persistent store is attached.
func (k *Kernel) StorageIntegrityStats() (st StorageIntegrity, ok bool) {
	k.integMu.Lock()
	src := k.integritySource
	k.integMu.Unlock()
	if src == nil {
		return StorageIntegrity{}, false
	}
	return src(), true
}

// ---------------------------------------------------------------------------
// Syscall entry.
// ---------------------------------------------------------------------------

// tctx is the snapshot of the invoking thread taken at syscall entry; every
// label check in the call uses it, so checks see the thread's label as of
// entry even if another goroutine concurrently retargets the thread.
type tctx struct {
	t         *thread
	lbl       label.Label
	clearance label.Label
	as        CEnt
}

// ThreadCall is the per-thread system-call context.  All system calls are
// methods on ThreadCall so that every operation is attributed to, and
// checked against, a specific thread.
type ThreadCall struct {
	k   *Kernel
	tid ID
}

// ThreadCall returns the syscall context for an existing thread.  In real
// HiStar the binding of executing code to its thread object is enforced by
// the hardware; in this simulation the caller that created the thread is
// trusted to hand the context only to that thread's code.
func (k *Kernel) ThreadCall(tid ID) (*ThreadCall, error) {
	o, err := k.lookup(tid)
	if err != nil {
		return nil, err
	}
	if _, ok := o.(*thread); !ok {
		return nil, ErrWrongType
	}
	return &ThreadCall{k: k, tid: tid}, nil
}

// Kernel returns the kernel this syscall context belongs to.
func (tc *ThreadCall) Kernel() *Kernel { return tc.k }

// ID returns the invoking thread's object ID.
func (tc *ThreadCall) ID() ID { return tc.tid }

// enter snapshots the invoking thread at syscall entry and records the call
// in the statistics.  It fails with ErrHalted if the thread is halted or
// deallocated.
func (tc *ThreadCall) enter(sc syscallID) (tctx, error) {
	o, err := tc.k.lookup(tc.tid)
	if err != nil {
		return tctx{}, ErrHalted
	}
	t, ok := o.(*thread)
	if !ok {
		return tctx{}, ErrWrongType
	}
	t.mu.RLock()
	if t.halted {
		t.mu.RUnlock()
		return tctx{}, ErrHalted
	}
	ctx := tctx{t: t, lbl: t.lbl, clearance: t.clearance, as: t.addressSpace}
	t.mu.RUnlock()
	tc.k.count(sc, t)
	return ctx, nil
}

// SyscallsIssued returns how many system calls this thread has issued.
func (tc *ThreadCall) SyscallsIssued() uint64 {
	o, err := tc.k.lookup(tc.tid)
	if err != nil {
		return 0
	}
	t, ok := o.(*thread)
	if !ok {
		return 0
	}
	return t.syscallCount.Load()
}

// ---------------------------------------------------------------------------
// Resolution.
// ---------------------------------------------------------------------------

// peek resolves a container entry 〈D,O〉: D must exist, the thread must be
// able to read D (LD ⊑ LTᴶ; container labels are immutable), and D must
// contain O (or be O itself, since every container contains itself).  The
// membership check here — under D's read lock, before the object is so much
// as looked up — preserves the resolve-order guarantee that naming an object
// not linked in D always yields ErrNoSuchObject, never a type or label
// error that would reveal the object's existence.  Membership is mutable,
// so syscalls re-verify it with verifyLinked once they hold their locks;
// peek itself returns with no locks held.
func (k *Kernel) peek(ctx tctx, ce CEnt) (*container, object, error) {
	cont, err := k.lookupContainer(ce.Container)
	if err != nil {
		return nil, nil, err
	}
	if !label.CanObserve(ctx.lbl, cont.lbl) {
		return nil, nil, ErrLabel
	}
	if ce.Object == ce.Container {
		return cont, cont, nil
	}
	cont.mu.RLock()
	linked := cont.entries[ce.Object]
	cont.mu.RUnlock()
	if !linked {
		return nil, nil, ErrNoSuchObject
	}
	obj, err := k.lookup(ce.Object)
	if err != nil {
		return nil, nil, err
	}
	return cont, obj, nil
}

// verifyLinked checks, under c's lock (any mode), that c is live and still
// links obj (or is obj itself).
func (c *container) verifyLinked(id ID) error {
	if c.dead.Load() {
		return ErrNoSuchObject
	}
	if id == c.id {
		return nil
	}
	if !c.entries[id] {
		return ErrNoSuchObject
	}
	return nil
}

// ---------------------------------------------------------------------------
// Bootstrap: creating the first thread.
// ---------------------------------------------------------------------------

// BootThread creates the initial thread directly in the root container with
// the given label and clearance.  It bypasses the usual "creator must be a
// thread" rule exactly once, the way the real kernel's bootstrap code hands
// control to the first user-level thread.
func (k *Kernel) BootThread(lbl, clearance label.Label, descrip string) (*ThreadCall, error) {
	if !label.ValidThreadLabel(lbl) || !label.ValidClearance(clearance) {
		return nil, ErrInvalid
	}
	if !lbl.Leq(clearance) {
		return nil, ErrLabel
	}
	root, err := k.lookupContainer(k.rootID)
	if err != nil {
		return nil, err
	}
	t := &thread{
		header: header{
			id:      k.newID(),
			objType: ObjThread,
			lbl:     lbl,
			quota:   1 << 20,
			descrip: truncDescrip(descrip),
			refs:    1,
		},
		clearance: clearance,
		alertCh:   make(chan struct{}, 1),
	}
	t.localSegment = &segment{
		header: header{
			id:      k.newID(),
			objType: ObjSegment,
			lbl:     lbl.LowerStar(),
			quota:   localSegmentSize,
			descrip: "thread-local segment",
		},
		data:             make([]byte, localSegmentSize),
		threadLocalOwner: t.id,
	}
	t.usage = t.footprint()
	root.mu.Lock()
	defer root.mu.Unlock()
	if !liveLocked(root) {
		return nil, ErrNoSuchObject
	}
	if err := k.charge(root, t.quota); err != nil {
		return nil, err
	}
	k.insert(t)
	root.link(t.id)
	return &ThreadCall{k: k, tid: t.id}, nil
}

// localSegmentSize is one page, as in the paper.
const localSegmentSize = 4096

func truncDescrip(s string) string {
	if len(s) > DescripSize {
		return s[:DescripSize]
	}
	return s
}

// charge charges q bytes of quota to container c, failing if the container's
// quota would be exceeded.  The caller holds c's write lock.
func (k *Kernel) charge(c *container, q uint64) error {
	if c.quota == QuotaInfinite {
		c.usage += q
		return nil
	}
	if q == QuotaInfinite {
		return ErrQuota
	}
	if c.usage+q > c.quota {
		return ErrQuota
	}
	c.usage += q
	return nil
}

// refund returns q bytes of quota to container c; the caller holds c's write
// lock.
func (k *Kernel) refund(c *container, q uint64) {
	if q == QuotaInfinite {
		return
	}
	if c.usage >= q {
		c.usage -= q
	} else {
		c.usage = 0
	}
}

// ---------------------------------------------------------------------------
// Deallocation.
// ---------------------------------------------------------------------------

// deallocLocked marks o dead and removes it from the object table; the
// caller holds o's write lock and o's reference count has reached zero.  It
// returns the IDs of o's children (for containers) whose references must be
// dropped by releaseRefs AFTER the caller has released its locks — the
// teardown never holds two tree levels' locks at once.
func (k *Kernel) deallocLocked(o object) []ID {
	h := o.hdr()
	if h.dead.Load() {
		return nil
	}
	h.dead.Store(true)
	var children []ID
	switch v := o.(type) {
	case *container:
		children = v.order
		v.entries = nil
		v.order = nil
	case *thread:
		v.halted = true
	case *device:
		// nothing extra
	}
	k.remove(h.id)
	return children
}

// releaseRefs drops one reference from each object in ids, deallocating any
// that reach zero and queueing their children in turn.  It locks exactly one
// object at a time, so it is deadlock-free regardless of tree shape, and
// must be called with no object locks held.
func (k *Kernel) releaseRefs(ids []ID) {
	work := ids
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		o, err := k.lookup(id)
		if err != nil {
			continue
		}
		h := o.hdr()
		h.mu.Lock()
		if h.dead.Load() {
			h.mu.Unlock()
			continue
		}
		h.refs--
		if h.refs <= 0 {
			work = append(work, k.deallocLocked(o)...)
		}
		h.mu.Unlock()
	}
}

// ---------------------------------------------------------------------------
// Introspection.
// ---------------------------------------------------------------------------

// ObjectCount returns the number of live kernel objects (for tests and the
// resource-exhaustion experiments).
func (k *Kernel) ObjectCount() int {
	n := 0
	for i := range k.shards {
		s := &k.shards[i]
		s.mu.RLock()
		for _, o := range s.m {
			if !o.hdr().dead.Load() {
				n++
			}
		}
		s.mu.RUnlock()
	}
	return n
}

// Describe returns a debugging one-liner for an object, without any label
// checks; intended for tests and the administrative tooling that runs with
// write permission on the root container.
func (k *Kernel) Describe(id ID) (string, error) {
	o, err := k.lookup(id)
	if err != nil {
		return "", err
	}
	h := o.hdr()
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.dead.Load() {
		return "", ErrNoSuchObject
	}
	return fmt.Sprintf("%s %s %q label=%s quota=%d usage=%d refs=%d",
		h.id, h.objType, h.descrip, h.lbl.Format(k.cats), h.quota, h.usage, h.refs), nil
}

// LabelCheckStats is a hit/miss count of a retired label-caching layer.
type LabelCheckStats struct {
	Hits   uint64
	Misses uint64
}

// LabelCacheStats always reports zero: label checks run as direct merges and
// the comparison cache is gone.  It is kept only for perfbench, until a
// benchmark change drops its label.cache_hit_rate metric.
func (k *Kernel) LabelCacheStats() LabelCheckStats { return LabelCheckStats{} }

// LabelL1Stats always reports zero: threads no longer carry a label-check
// L1.  It is kept only for perfbench, until a benchmark change drops its
// label.l1_hit_rate metric.
func (k *Kernel) LabelL1Stats() LabelCheckStats { return LabelCheckStats{} }
