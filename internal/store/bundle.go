package store

// Snapshot bundles: a bundle captures a set of committed objects — their
// home extents, contents CRCs, and canonical labels — *by reference* into
// the append-only data region, under a deterministic lineage ID.  Cloning
// an object out of a bundle is O(metadata): the clone's object-map entry
// simply aliases the source extent, and the first rewrite of the clone goes
// through the ordinary dirty/relocate path, giving it a private home extent
// (copy-on-write at checkpoint granularity).
//
// Sharing is tracked by extRefs, a refcount over extents with more than one
// referent (object-map entries plus bundle pins; an absent entry means the
// single ordinary owner).  vacateExtent consults it first, so neither the
// segment cleaner nor the deferred-free path can reclaim bytes reachable
// from a live bundle or a live clone.  Segments holding bundle-referenced
// extents are additionally immovable: bundles record extents by offset, so
// the cleaner skips such segments entirely rather than copying them out.
//
// Durability: SnapshotBundle runs a checkpoint first (the captured extents
// must be committed homes), registers the bundle, then appends and commits
// a WAL bundle record carrying the serialized bundle, so the bundle
// survives a crash immediately; from the next checkpoint on it also lives
// in the metadata snapshot's bundle section (format v4).  Each clone
// appends a small self-contained WAL clone record (lineage, source ID,
// extent, CRC) plus the clone's label; replay re-aliases the extent, and a
// clone record whose bundle cannot be resolved quarantines the destination
// — a typed error, never silent bad bytes.  DeleteBundle needs no record
// of its own: it unregisters, releases the pins, and checkpoints, and the
// checkpoint's metadata flip is what makes the deletion durable (a
// fallback mount may resurrect the bundle along with the rest of the older
// snapshot, which is consistent by construction).
//
// Rot: when any read path detects a contents-CRC mismatch on an extent,
// the damage is propagated to every referent — each aliasing object is
// quarantined and each bundle entry over that extent is marked rotted, so
// further clones of it fail with a QuarantineError.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"

	"histar/internal/btree"
	"histar/internal/label"
	"histar/internal/wal"
)

// Bundle errors.
var (
	// ErrNoSuchBundle is returned when a lineage ID names no registered
	// snapshot bundle (wrong ID, deleted bundle, or an image that lost it).
	ErrNoSuchBundle = errors.New("store: no such snapshot bundle")
	// ErrNotCommitted is returned by SnapshotBundle when a requested object
	// still has uncommitted (dirty) state after the capture checkpoint —
	// the caller must quiesce writers before baking a bundle.
	ErrNotCommitted = errors.New("store: object has uncommitted state")
	// ErrCloneExists is returned when the clone destination ID already
	// holds an object.
	ErrCloneExists = errors.New("store: clone destination already exists")
)

// BundleObject is one captured object: the committed home extent it pins
// and the canonical label it carried at capture time.
type BundleObject struct {
	ID    uint64
	Off   int64
	Size  int64
	CRC   uint32
	Label []byte // canonical label.AppendBinary bytes, nil if unlabeled
}

// Bundle is a registered snapshot bundle.  Objects is immutable after
// registration; rotted is guarded by metaMu like the bundle table itself.
type Bundle struct {
	Lineage uint64
	Name    string
	// Epoch is the metadata epoch current at capture; the checkpoint
	// retention floor keeps the WAL generation holding this bundle's record
	// until two committed snapshots contain the bundle.
	Epoch   uint64
	Objects []BundleObject

	rotted map[uint64]bool // bundle object IDs whose shared extent rotted
}

func (b *Bundle) object(id uint64) *BundleObject {
	for i := range b.Objects {
		if b.Objects[i].ID == id {
			return &b.Objects[i]
		}
	}
	return nil
}

// BundleInfo is the externally visible summary of a registered bundle.
type BundleInfo struct {
	Lineage uint64
	Name    string
	Epoch   uint64
	Objects int
	// Bytes is the total size of the pinned extents.
	Bytes int64
	// Rotted counts bundle objects whose shared extent failed verification.
	Rotted int
}

// bundleLineage derives the deterministic lineage ID: an FNV-1a hash over
// the bundle name and every captured object's identity, size, and contents
// CRC.  Offsets are deliberately excluded so lineage identifies content,
// not physical layout.
func bundleLineage(name string, objs []BundleObject) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	var b [8]byte
	for _, o := range objs {
		binary.LittleEndian.PutUint64(b[:], o.ID)
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], uint64(o.Size))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], objCRCValid|uint64(o.CRC))
		h.Write(b[:])
		h.Write(o.Label)
	}
	v := h.Sum64()
	if v == 0 {
		v = 1 // 0 is reserved for "no bundle"
	}
	return v
}

// SnapshotBundle captures the given objects as a named immutable bundle and
// returns its lineage ID.  It checkpoints first so every object has a
// committed home extent, pins those extents against reclamation, and makes
// the bundle durable with a WAL bundle record.  Capturing the same content
// under the same name is idempotent and returns the same lineage.
func (s *Store) SnapshotBundle(name string, ids []uint64) (uint64, error) {
	if err := s.Checkpoint(); err != nil {
		return 0, err
	}
	lineage, err := s.captureBundle(name, ids)
	if err != nil {
		if errors.Is(err, wal.ErrFull) {
			// No log room for the bundle record: a checkpoint persists the
			// registered bundle in the metadata snapshot instead.
			return lineage, s.Checkpoint()
		}
		return 0, err
	}
	return lineage, nil
}

// captureBundle is SnapshotBundle's body under the checkpoint gate.
func (s *Store) captureBundle(name string, ids []uint64) (uint64, error) {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	if s.closed {
		return 0, ErrClosed
	}
	sorted := append([]uint64(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	objs := make([]BundleObject, 0, len(sorted))
	var last uint64
	for i, id := range sorted {
		if i > 0 && id == last {
			continue
		}
		last = id
		// Entry state first (entry lock), extent second (metaMu) — the same
		// order Get's readHome path uses.
		var lblBytes []byte
		if e := s.shardOf(id).lookup(id); e != nil {
			e.mu.Lock()
			switch {
			case e.quar:
				e.mu.Unlock()
				return 0, &QuarantineError{ID: id, Detail: "cannot bundle a quarantined object"}
			case e.dead:
				e.mu.Unlock()
				return 0, fmt.Errorf("%w: object %d", ErrNoSuchObject, id)
			case e.dirty || e.ckpt:
				e.mu.Unlock()
				return 0, fmt.Errorf("%w: object %d", ErrNotCommitted, id)
			}
			if e.hasLbl {
				lblBytes = e.lbl.AppendBinary(nil)
			}
			e.mu.Unlock()
		}
		s.metaMu.RLock()
		off, ok := s.objMap.Get(btree.K1(id))
		size := s.objSizes[id]
		crc := s.objCRCs[id]
		s.metaMu.RUnlock()
		if !ok {
			return 0, fmt.Errorf("%w: object %d has no committed home", ErrNoSuchObject, id)
		}
		objs = append(objs, BundleObject{
			ID: id, Off: int64(off), Size: size, CRC: crc, Label: lblBytes,
		})
	}
	lineage := bundleLineage(name, objs)
	b := &Bundle{Lineage: lineage, Name: name, Objects: objs}
	s.metaMu.Lock()
	if _, exists := s.bundles[lineage]; exists {
		s.metaMu.Unlock()
		return lineage, nil
	}
	b.Epoch = s.metaEpoch
	s.bundles[lineage] = b
	s.metaMu.Unlock()
	s.allocMu.Lock()
	for i := range b.Objects {
		s.pinExtentLocked(b.Objects[i].Off)
	}
	s.allocMu.Unlock()
	s.c.bundleSnapshots.Add(1)
	rec := wal.Record{ObjectID: lineage, Data: encodeBundleBody(b), Bundle: true}
	if err := s.l.Append(rec); err == nil {
		err = s.l.Commit()
		if err == nil {
			return lineage, nil
		}
		if errors.Is(err, wal.ErrFull) {
			// The record stays pending; the caller's checkpoint fallback
			// persists the bundle, and a later commit of the record replays
			// idempotently.
			return lineage, err
		}
		return lineage, err
	} else if errors.Is(err, wal.ErrTooLarge) {
		// A bundle too large for any log: persist via checkpoint only.
		return lineage, wal.ErrFull
	} else {
		return lineage, err
	}
}

// pinExtentLocked adds one reference to an extent; the caller holds allocMu.
// An absent entry means one ordinary owner, so the first share starts at 2.
func (s *Store) pinExtentLocked(off int64) {
	if n, ok := s.extRefs[off]; ok {
		s.extRefs[off] = n + 1
	} else {
		s.extRefs[off] = 2
	}
}

// CloneObject creates object dstID as an O(metadata) clone of srcID out of
// the bundle named by lineage: the clone aliases the source's committed
// extent (no data is read or written) and inherits the bundle's recorded
// label.  The clone is made durable by a small WAL clone record; its first
// rewrite gives it a private extent through the normal checkpoint path.
func (s *Store) CloneObject(lineage, srcID, dstID uint64) error {
	return s.cloneObject(lineage, srcID, dstID, nil)
}

// CloneObjectLabeled is CloneObject with the clone's label overridden —
// the hook the kernel's category-remapping clone path uses.
func (s *Store) CloneObjectLabeled(lineage, srcID, dstID uint64, lbl label.Label) error {
	return s.cloneObject(lineage, srcID, dstID, lbl.AppendBinary(nil))
}

func (s *Store) cloneObject(lineage, srcID, dstID uint64, lblBytes []byte) error {
	err := s.cloneObjectLocked(lineage, srcID, dstID, lblBytes)
	if errors.Is(err, wal.ErrFull) {
		// The alias is installed in memory; a checkpoint persists it in the
		// object map when the log has no room for the clone record.
		return s.Checkpoint()
	}
	return err
}

func (s *Store) cloneObjectLocked(lineage, srcID, dstID uint64, lblBytes []byte) error {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	sh := s.shardOf(dstID)
	e := sh.getOrCreate(dstID)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cached || e.dirty {
		return fmt.Errorf("%w: object %d", ErrCloneExists, dstID)
	}
	s.metaMu.Lock()
	b := s.bundles[lineage]
	if b == nil {
		s.metaMu.Unlock()
		return fmt.Errorf("%w: lineage %#x", ErrNoSuchBundle, lineage)
	}
	bo := b.object(srcID)
	if bo == nil {
		s.metaMu.Unlock()
		return fmt.Errorf("%w: object %d not captured by bundle %q", ErrNoSuchObject, srcID, b.Name)
	}
	if b.rotted[srcID] {
		s.metaMu.Unlock()
		return &QuarantineError{ID: srcID,
			Detail: fmt.Sprintf("bundle %q extent at offset %d failed verification; refusing to clone", b.Name, bo.Off)}
	}
	if _, ok := s.objMap.Get(btree.K1(dstID)); ok {
		s.metaMu.Unlock()
		return fmt.Errorf("%w: object %d", ErrCloneExists, dstID)
	}
	if lblBytes == nil {
		lblBytes = bo.Label
	}
	s.objMap.Put(btree.K1(dstID), uint64(bo.Off))
	s.objSizes[dstID] = bo.Size
	s.objCRCs[dstID] = bo.CRC
	s.metaMu.Unlock()
	s.allocMu.Lock()
	s.pinExtentLocked(bo.Off)
	s.allocMu.Unlock()
	e.dead, e.quar = false, false
	if len(lblBytes) > 0 {
		lbl, rest, derr := s.decodeLabel(lblBytes)
		if derr == nil && len(rest) == 0 {
			s.setLabel(sh, dstID, e, lbl)
		}
	} else {
		s.clearLabel(sh, dstID, e)
	}
	s.c.objectClones.Add(1)
	s.c.cloneBytesShared.Add(uint64(bo.Size))
	// The clone record is appended under the entry lock (like group-commit
	// seals), so replay order for dstID matches operation order.
	rec := wal.Record{
		ObjectID: dstID,
		Data:     encodeCloneBody(lineage, srcID, bo),
		Label:    append([]byte(nil), lblBytes...),
		Clone:    true,
	}
	if err := s.l.Append(rec); err != nil {
		return err
	}
	return s.l.Commit()
}

// DeleteBundle unregisters a bundle and releases its extent pins, then
// checkpoints: the metadata flip is what makes the deletion durable.  A
// crash before the checkpoint commits simply resurrects the bundle with its
// pins intact.
func (s *Store) DeleteBundle(lineage uint64) error {
	s.ckptMu.RLock()
	if s.closed {
		s.ckptMu.RUnlock()
		return ErrClosed
	}
	s.metaMu.Lock()
	b, ok := s.bundles[lineage]
	if !ok {
		s.metaMu.Unlock()
		s.ckptMu.RUnlock()
		return fmt.Errorf("%w: lineage %#x", ErrNoSuchBundle, lineage)
	}
	delete(s.bundles, lineage)
	s.metaMu.Unlock()
	for i := range b.Objects {
		s.vacateExtent(b.Objects[i].Off, b.Objects[i].Size)
	}
	s.ckptMu.RUnlock()
	return s.Checkpoint()
}

// Bundles returns a summary of every registered bundle, ascending by
// lineage ID.
func (s *Store) Bundles() []BundleInfo {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	s.metaMu.RLock()
	out := make([]BundleInfo, 0, len(s.bundles))
	for _, b := range s.bundles {
		out = append(out, s.bundleInfoLocked(b))
	}
	s.metaMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Lineage < out[j].Lineage })
	return out
}

// BundleByLineage returns the summary of one bundle.
func (s *Store) BundleByLineage(lineage uint64) (BundleInfo, bool) {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	s.metaMu.RLock()
	defer s.metaMu.RUnlock()
	b, ok := s.bundles[lineage]
	if !ok {
		return BundleInfo{}, false
	}
	return s.bundleInfoLocked(b), true
}

func (s *Store) bundleInfoLocked(b *Bundle) BundleInfo {
	info := BundleInfo{Lineage: b.Lineage, Name: b.Name, Epoch: b.Epoch,
		Objects: len(b.Objects), Rotted: len(b.rotted)}
	for i := range b.Objects {
		info.Bytes += b.Objects[i].Size
	}
	return info
}

// ValidateBundle checks a lineage ID at restore time: the bundle must be
// registered and none of its extents rotted.  This is the kernel's lineage
// gate before a golden-image clone.
func (s *Store) ValidateBundle(lineage uint64) error {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	s.metaMu.RLock()
	defer s.metaMu.RUnlock()
	b, ok := s.bundles[lineage]
	if !ok {
		return fmt.Errorf("%w: lineage %#x", ErrNoSuchBundle, lineage)
	}
	if len(b.rotted) > 0 {
		return &QuarantineError{ID: b.Lineage,
			Detail: fmt.Sprintf("bundle %q has %d rotted extents", b.Name, len(b.rotted))}
	}
	return nil
}

// bundleRetentionFloor returns the oldest WAL generation any live bundle's
// record may still be needed from: a bundle captured at epoch E has its
// record in generation E and enters the metadata snapshot at E+1, so the
// generation may be dropped only once two committed snapshots (E+1 and
// E+2) contain the bundle — i.e. once the finishing epoch reaches E+2.
// Returns ^uint64(0) when no bundle constrains reclamation.
func (s *Store) bundleRetentionFloor(finishEpoch uint64) uint64 {
	floor := ^uint64(0)
	s.metaMu.RLock()
	for _, b := range s.bundles {
		if b.Epoch+2 > finishEpoch && b.Epoch < floor {
			floor = b.Epoch
		}
	}
	s.metaMu.RUnlock()
	return floor
}

// propagateExtentRot spreads a contents-CRC failure at extent off to every
// referent: aliasing objects (other than skip, which the caller already
// handled) are quarantined, and bundle entries over the extent are marked
// rotted so clones of them fail typed.  Called with no locks held.
func (s *Store) propagateExtentRot(off int64, skip uint64) {
	var ids []uint64
	s.metaMu.Lock()
	s.objMap.Scan(func(k btree.Key, v uint64) bool {
		if int64(v) == off && k[0] != skip {
			ids = append(ids, k[0])
		}
		return true
	})
	for _, b := range s.bundles {
		for i := range b.Objects {
			if b.Objects[i].Off == off {
				if b.rotted == nil {
					b.rotted = make(map[uint64]bool)
				}
				b.rotted[b.Objects[i].ID] = true
			}
		}
	}
	s.metaMu.Unlock()
	for _, id := range ids {
		e := s.shardOf(id).getOrCreate(id)
		e.mu.Lock()
		// A resident or rewritten copy supersedes the damaged extent.
		if !e.cached && !e.dirty && !e.dead {
			s.quarantine(id, e, fmt.Sprintf("shares rotted extent at offset %d", off))
		}
		e.mu.Unlock()
	}
}

// homeOffset returns the object's committed home-extent offset.
func (s *Store) homeOffset(id uint64) (int64, bool) {
	s.metaMu.RLock()
	off, ok := s.objMap.Get(btree.K1(id))
	s.metaMu.RUnlock()
	return int64(off), ok
}

// ---------------------------------------------------------------------------
// Serialization: WAL records and the metadata bundle section share one body
// codec.
// ---------------------------------------------------------------------------

// cloneBodySize is the fixed payload of a WAL clone record: lineage,
// source ID, extent offset, extent size, CRC field.
const cloneBodySize = 40

func encodeCloneBody(lineage, srcID uint64, bo *BundleObject) []byte {
	buf := make([]byte, 0, cloneBodySize)
	buf = appendU64(buf, lineage)
	buf = appendU64(buf, srcID)
	buf = appendU64(buf, uint64(bo.Off))
	buf = appendU64(buf, uint64(bo.Size))
	buf = appendU64(buf, objCRCValid|uint64(bo.CRC))
	return buf
}

// encodeBundleBody serializes one bundle (without its lineage, which rides
// in the WAL record's object-ID field or the section's per-bundle prefix).
func encodeBundleBody(b *Bundle) []byte {
	var buf []byte
	buf = appendU64(buf, uint64(len(b.Name)))
	buf = append(buf, b.Name...)
	buf = appendU64(buf, b.Epoch)
	buf = appendU64(buf, uint64(len(b.Objects)))
	for i := range b.Objects {
		o := &b.Objects[i]
		buf = appendU64(buf, o.ID)
		buf = appendU64(buf, uint64(o.Off))
		buf = appendU64(buf, uint64(o.Size))
		buf = appendU64(buf, objCRCValid|uint64(o.CRC))
		buf = appendU64(buf, uint64(len(o.Label)))
		buf = append(buf, o.Label...)
	}
	return buf
}

// decodeBundleBody is encodeBundleBody's inverse; structural violations
// come back as CorruptError.
func decodeBundleBody(lineage uint64, buf []byte, area string, areaOff int64) (*Bundle, error) {
	r := &sectionReader{buf: buf, off: areaOff, area: area}
	nameLen, err := r.u64()
	if err != nil {
		return nil, err
	}
	if nameLen > uint64(len(r.buf)) {
		return nil, &CorruptError{Area: area, Offset: areaOff, Detail: "bundle name overruns payload"}
	}
	name := string(r.buf[:nameLen])
	r.buf = r.buf[nameLen:]
	epoch, err := r.u64()
	if err != nil {
		return nil, err
	}
	n, err := r.u64()
	if err != nil {
		return nil, err
	}
	b := &Bundle{Lineage: lineage, Name: name, Epoch: epoch}
	for i := uint64(0); i < n; i++ {
		id, err := r.u64()
		if err != nil {
			return nil, err
		}
		off, err := r.u64()
		if err != nil {
			return nil, err
		}
		size, err := r.u64()
		if err != nil {
			return nil, err
		}
		crcField, err := r.u64()
		if err != nil {
			return nil, err
		}
		if crcField&objCRCValid == 0 {
			return nil, &CorruptError{Area: area, Offset: areaOff,
				Detail: fmt.Sprintf("bundle object %d has no contents CRC", id)}
		}
		lblLen, err := r.u64()
		if err != nil {
			return nil, err
		}
		if lblLen > uint64(len(r.buf)) {
			return nil, &CorruptError{Area: area, Offset: areaOff, Detail: "bundle label overruns payload"}
		}
		var lbl []byte
		if lblLen > 0 {
			lbl = append([]byte(nil), r.buf[:lblLen]...)
		}
		r.buf = r.buf[lblLen:]
		b.Objects = append(b.Objects, BundleObject{
			ID: id, Off: int64(off), Size: int64(size),
			CRC: uint32(crcField), Label: lbl,
		})
	}
	return b, nil
}

// replayBundleRecord re-registers a bundle from a WAL record during Open
// (single-threaded); extent pins and segment live counts are rebuilt once
// by the recomputeSegLive pass that follows replay.
func (s *Store) replayBundleRecord(r wal.Record) error {
	if _, exists := s.bundles[r.ObjectID]; exists {
		return nil // already in the loaded snapshot
	}
	b, err := decodeBundleBody(r.ObjectID, r.Data, "wal", logOffset)
	if err != nil {
		return s.noteCorruption(fmt.Errorf("%w: replaying bundle %#x: %v", ErrCorrupt, r.ObjectID, err))
	}
	s.bundles[r.ObjectID] = b
	return nil
}

// replayCloneRecord re-applies a clone alias from a WAL record during Open
// (single-threaded).  A clone already present in the loaded snapshot is
// skipped; a clone whose bundle cannot be resolved — possible only after a
// deep metadata fallback — is quarantined rather than silently aliased.
func (s *Store) replayCloneRecord(r wal.Record) {
	if len(r.Data) != cloneBodySize {
		s.noteCorruption(fmt.Errorf("%w: clone record for object %d has %d-byte payload", ErrCorrupt, r.ObjectID, len(r.Data)))
		return
	}
	lineage := binary.LittleEndian.Uint64(r.Data[0:])
	srcID := binary.LittleEndian.Uint64(r.Data[8:])
	off := int64(binary.LittleEndian.Uint64(r.Data[16:]))
	size := int64(binary.LittleEndian.Uint64(r.Data[24:]))
	crcField := binary.LittleEndian.Uint64(r.Data[32:])
	dst := r.ObjectID
	sh := s.shardOf(dst)
	e := sh.getOrCreate(dst)
	if _, ok := s.objMap.Get(btree.K1(dst)); ok {
		// The loaded snapshot already placed this object (the clone itself,
		// or a later rewrite); the record is stale.
		return
	}
	b := s.bundles[lineage]
	if b == nil || b.object(srcID) == nil || b.object(srcID).Off != off {
		s.noteCorruption(fmt.Errorf("%w: clone record for object %d references unresolvable bundle %#x", ErrCorrupt, dst, lineage))
		s.quarantine(dst, e, "clone source bundle lost by metadata fallback")
		return
	}
	s.objMap.Put(btree.K1(dst), uint64(off))
	s.objSizes[dst] = size
	s.objCRCs[dst] = uint32(crcField)
	e.dead, e.quar, e.cached, e.dirty = false, false, false, false
	if len(r.Label) == 0 {
		s.clearLabel(sh, dst, e)
		return
	}
	lbl, rest, derr := s.decodeLabel(r.Label)
	if derr == nil && len(rest) == 0 {
		s.setLabel(sh, dst, e, lbl)
	} else {
		s.noteCorruption(fmt.Errorf("%w: replaying label of clone %d: %v", ErrCorrupt, dst, derr))
	}
}

// encodeBundlesSection serializes the bundle table for the metadata
// snapshot: [count] then per bundle [lineage][bodyLen][body].
func (s *Store) encodeBundlesSection() []byte {
	s.metaMu.RLock()
	lineages := make([]uint64, 0, len(s.bundles))
	for l := range s.bundles {
		lineages = append(lineages, l)
	}
	sort.Slice(lineages, func(i, j int) bool { return lineages[i] < lineages[j] })
	var buf []byte
	buf = appendU64(buf, uint64(len(lineages)))
	for _, l := range lineages {
		body := encodeBundleBody(s.bundles[l])
		buf = appendU64(buf, l)
		buf = appendU64(buf, uint64(len(body)))
		buf = append(buf, body...)
	}
	s.metaMu.RUnlock()
	return buf
}

func (s *Store) decodeBundlesSection(buf []byte, areaOff int64) error {
	r := &sectionReader{buf: buf, off: areaOff, area: "metadata"}
	n, err := r.u64()
	if err != nil {
		return err
	}
	for i := uint64(0); i < n; i++ {
		lineage, err := r.u64()
		if err != nil {
			return err
		}
		bodyLen, err := r.u64()
		if err != nil {
			return err
		}
		if bodyLen > uint64(len(r.buf)) {
			return &CorruptError{Area: "metadata", Offset: areaOff, Detail: "bundle body overruns section"}
		}
		b, derr := decodeBundleBody(lineage, r.buf[:bodyLen], "metadata", areaOff)
		if derr != nil {
			return derr
		}
		r.buf = r.buf[bodyLen:]
		s.bundles[lineage] = b
	}
	return nil
}

// BundleStats is the bundle/clone accounting snapshot.
type BundleStats struct {
	// Bundles and BundleObjects describe the registered bundle table;
	// PinnedBytes is the total size of bundle-pinned extents.
	Bundles       int
	BundleObjects int
	PinnedBytes   int64
	// SharedExtents is the number of extents currently referenced more than
	// once (clone aliases plus bundle pins).
	SharedExtents int
	// Snapshots and Clones count SnapshotBundle and CloneObject calls that
	// succeeded; CloneBytesShared is the total size of extents aliased by
	// clones (bytes NOT copied thanks to sharing).
	Snapshots        uint64
	Clones           uint64
	CloneBytesShared uint64
}

// BundleStats returns bundle and clone accounting.
func (s *Store) BundleStats() BundleStats {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	st := BundleStats{
		Snapshots:        s.c.bundleSnapshots.Load(),
		Clones:           s.c.objectClones.Load(),
		CloneBytesShared: s.c.cloneBytesShared.Load(),
	}
	s.metaMu.RLock()
	st.Bundles = len(s.bundles)
	for _, b := range s.bundles {
		st.BundleObjects += len(b.Objects)
		for i := range b.Objects {
			st.PinnedBytes += b.Objects[i].Size
		}
	}
	s.metaMu.RUnlock()
	s.allocMu.Lock()
	st.SharedExtents = len(s.extRefs)
	s.allocMu.Unlock()
	return st
}
