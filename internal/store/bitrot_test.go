package store

// The bit-rot injection harness: silent single- and multi-bit corruption is
// injected into every on-disk structure (superblock copies, metadata header
// and sections, object extents, write-ahead log) and the tests assert the
// right rung of the degradation ladder fires — detection everywhere, backup
// superblock fallback, previous-snapshot-plus-retained-log fallback with
// zero committed-sync loss, index rebuild, and per-object quarantine.
//
// Injections use odd bit counts: CRC32C's generator polynomial has a factor
// of x+1, so every odd-weight error burst inside one checksummed span is
// detected with certainty, making these tests deterministic rather than
// probabilistic (RotBits may land two flips on the same bit, but an odd
// multiset always leaves an odd — hence nonzero and detectable — net flip).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"histar/internal/btree"
	"histar/internal/disk"
	"histar/internal/label"
	"histar/internal/vclock"
)

const (
	rotLogSize  = 128 << 10
	rotMetaSize = 256 << 10
)

// rotStore formats a store on a FaultDisk-wrapped 8 MB device.  Small
// segments put the checkpointed objects into the log-structured region, so
// the ladder's object-extent rungs exercise rot inside sealed segments.
func rotStore(t testing.TB) (*Store, *disk.FaultDisk) {
	t.Helper()
	base := disk.New(disk.Params{Sectors: 1 << 14, WriteCache: true}, &vclock.Clock{})
	fd := disk.NewFaultDisk(base)
	s, err := Format(fd, Options{LogSize: rotLogSize, MetaAreaSize: rotMetaSize, SegmentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return s, fd
}

func rotLabel(cat uint64) label.Label {
	return label.New(label.L1, label.P(label.Category(cat), label.L3))
}

// populateGenerations drives the store through the full lifecycle the
// fallback ladder depends on: a first checkpointed generation, a second
// generation synced then checkpointed (retained behind the log's seal
// marker), and a tail of syncs in the current log generation.  Every
// mutation is synced, so recovery on any rung must reproduce the returned
// contents exactly.
func populateGenerations(t testing.TB, s *Store) map[uint64]string {
	t.Helper()
	want := make(map[uint64]string)
	put := func(id uint64, v string) {
		t.Helper()
		if err := s.PutLabeled(id, rotLabel(id%7), []byte(v)); err != nil {
			t.Fatal(err)
		}
		if err := s.SyncObject(id); err != nil {
			t.Fatal(err)
		}
		want[id] = v
	}
	for i := uint64(0); i < 10; i++ {
		put(i, fmt.Sprintf("gen0-object-%d", i))
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(10); i < 20; i++ {
		put(i, fmt.Sprintf("gen1-object-%d", i))
	}
	put(0, "gen1-overwrite-of-object-0")
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(20); i < 25; i++ {
		put(i, fmt.Sprintf("gen2-object-%d", i))
	}
	return want
}

func checkAll(t *testing.T, s *Store, want map[uint64]string) {
	t.Helper()
	for id, v := range want {
		got, err := s.Get(id)
		if err != nil || string(got) != v {
			t.Fatalf("object %d = %q, %v; want %q", id, got, err, v)
		}
	}
}

// metaPayloadLen reads the payload length out of a metadata area header.
func metaPayloadLen(t testing.TB, d disk.Device, areaOff int64) int64 {
	t.Helper()
	hdr := make([]byte, metaHeaderSize)
	if _, err := d.ReadAt(hdr, areaOff); err != nil {
		t.Fatal(err)
	}
	return int64(binary.LittleEndian.Uint64(hdr[mhPayloadOff:]))
}

// findSection walks a metadata area's section stream on disk and returns
// the device region of one section's payload.
func findSection(t *testing.T, d disk.Device, areaOff int64, wantTag uint64) disk.Region {
	t.Helper()
	payloadLen := metaPayloadLen(t, d, areaOff)
	payload := make([]byte, payloadLen)
	if _, err := d.ReadAt(payload, areaOff+metaHeaderSize); err != nil {
		t.Fatal(err)
	}
	off := int64(0)
	for off < payloadLen {
		tag := binary.LittleEndian.Uint64(payload[off:])
		slen := int64(binary.LittleEndian.Uint64(payload[off+8:]))
		off += 24
		if tag == wantTag {
			return disk.Region{Off: areaOff + metaHeaderSize + off, Len: slen}
		}
		off += slen
	}
	t.Fatalf("section %d not found in metadata area at %d", wantTag, areaOff)
	return disk.Region{}
}

// TestBitRotEveryCoveredFlipDetected is acceptance criterion (a): a single
// silent bit flip anywhere in the superblock copies or the referenced
// metadata area is always detected — the reopen either degrades (and still
// serves every committed object correctly) or counts the corruption; it
// never serves wrong data silently.
func TestBitRotEveryCoveredFlipDetected(t *testing.T) {
	type target struct {
		name   string
		region func(s *Store, fd *disk.FaultDisk) disk.Region
	}
	targets := []target{
		{"superblock-primary", func(*Store, *disk.FaultDisk) disk.Region {
			return disk.Region{Off: superblockOffset, Len: sbCopySize}
		}},
		{"superblock-backup", func(*Store, *disk.FaultDisk) disk.Region {
			return disk.Region{Off: superblockOffset + sbBackupOff, Len: sbCopySize}
		}},
		{"meta-header", func(s *Store, _ *disk.FaultDisk) disk.Region {
			return disk.Region{Off: s.metaAreaOff(s.metaWhich), Len: metaHeaderSize}
		}},
		{"meta-payload", func(s *Store, fd *disk.FaultDisk) disk.Region {
			areaOff := s.metaAreaOff(s.metaWhich)
			return disk.Region{Off: areaOff + metaHeaderSize, Len: metaPayloadLen(t, fd, areaOff)}
		}},
	}
	for _, tgt := range targets {
		tgt := tgt
		t.Run(tgt.name, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				s, fd := rotStore(t)
				want := populateGenerations(t, s)
				if err := fd.RotBits(tgt.region(s, fd), 1, seed); err != nil {
					t.Fatal(err)
				}
				s2, err := Open(fd, Options{})
				if err != nil {
					t.Fatalf("seed %d: single flip in %s must stay mountable: %v", seed, tgt.name, err)
				}
				st := s2.IntegrityStats()
				if st.CorruptionsDetected == 0 && !st.Recovery.Degraded() {
					t.Fatalf("seed %d: flip in %s went undetected: %+v", seed, tgt.name, st.Recovery)
				}
				checkAll(t, s2, want)
			}
		})
	}
}

func TestBitRotSuperblockPrimaryFallsBackToBackup(t *testing.T) {
	s, fd := rotStore(t)
	want := populateGenerations(t, s)
	if err := fd.RotBits(disk.Region{Off: superblockOffset, Len: sbCopySize}, 5, 42); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(fd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := s2.RecoveryReport()
	if !rep.SuperblockFallback {
		t.Fatalf("expected superblock fallback, got %+v", rep)
	}
	if rep.MetaFallback {
		t.Fatalf("metadata should not have needed fallback: %+v", rep)
	}
	checkAll(t, s2, want)
}

func TestBitRotBothSuperblockCopiesRefused(t *testing.T) {
	s, fd := rotStore(t)
	populateGenerations(t, s)
	_ = s
	if err := fd.RotBits(disk.Region{Off: superblockOffset, Len: sbCopySize}, 5, 1); err != nil {
		t.Fatal(err)
	}
	if err := fd.RotBits(disk.Region{Off: superblockOffset + sbBackupOff, Len: sbCopySize}, 5, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(fd, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with both superblock copies rotted = %v; want ErrCorrupt", err)
	}

	// A copy whose version/epoch/CRC tail (bytes 40-63) reads zero is
	// damage like any other and fails its CRC: with the primary zeroed the
	// backup serves, and with both zeroed the mount is refused.
	s, fd = rotStore(t)
	want := populateGenerations(t, s)
	zeroTail := func(copyOff int64) {
		t.Helper()
		if _, err := fd.WriteAt(make([]byte, sbCopySize-sbVersionOff), copyOff+sbVersionOff); err != nil {
			t.Fatal(err)
		}
	}
	zeroTail(superblockOffset)
	s2, err := Open(fd, Options{})
	if err != nil {
		t.Fatalf("open with the primary tail zeroed: %v", err)
	}
	if !s2.RecoveryReport().SuperblockFallback {
		t.Fatalf("expected superblock fallback, got %+v", s2.RecoveryReport())
	}
	checkAll(t, s2, want)
	zeroTail(superblockOffset + sbBackupOff)
	_, err = Open(fd, Options{})
	var ce *CorruptError
	if !errors.Is(err, ErrCorrupt) || !errors.As(err, &ce) || ce.Offset != superblockOffset+sbCRCOff {
		t.Fatalf("open with both tails zeroed = %v; want ErrCorrupt from the primary's CRC check", err)
	}
}

// TestBitRotMetaFallbackZeroCommittedSyncLoss is acceptance criterion (b):
// when the referenced metadata area rots, Open falls back to the alternate
// (previous-checkpoint) snapshot and replays the retained log generation
// forward — every synced mutation from both generations survives.
func TestBitRotMetaFallbackZeroCommittedSyncLoss(t *testing.T) {
	s, fd := rotStore(t)
	want := populateGenerations(t, s)
	epoch := s.metaEpoch
	areaOff := s.metaAreaOff(s.metaWhich)
	if err := fd.RotBits(disk.Region{Off: areaOff, Len: mhCRCOff}, 3, 7); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(fd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := s2.RecoveryReport()
	if !rep.MetaFallback {
		t.Fatalf("expected metadata fallback, got %+v", rep)
	}
	if rep.MetaEpoch != epoch-1 {
		t.Fatalf("fallback epoch = %d, want %d", rep.MetaEpoch, epoch-1)
	}
	// Retained generation (11 records) plus the current one (5 records).
	if rep.WALRecordsReplayed != 16 {
		t.Fatalf("replayed %d records, want 16", rep.WALRecordsReplayed)
	}
	checkAll(t, s2, want)
	// The degraded mount must heal itself: the next checkpoint rewrites
	// both the snapshot and the superblock, and a further reopen is clean.
	if err := s2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(fd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s3.RecoveryReport().Degraded() {
		t.Fatalf("reopen after healing checkpoint still degraded: %+v", s3.RecoveryReport())
	}
	checkAll(t, s3, want)
}

func TestBitRotBothMetaAreasRefused(t *testing.T) {
	s, fd := rotStore(t)
	populateGenerations(t, s)
	for which := 0; which < 2; which++ {
		if err := fd.RotBits(disk.Region{Off: s.metaAreaOff(which), Len: mhCRCOff}, 3, int64(which+1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Open(fd, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with both metadata areas rotted = %v; want ErrCorrupt", err)
	}
}

// TestBitRotIndexSectionRebuiltNotFatal is acceptance criterion (c): rot
// confined to the fingerprint-index section neither fails the mount nor
// forces a snapshot fallback — the index is rebuilt from the label section.
func TestBitRotIndexSectionRebuiltNotFatal(t *testing.T) {
	s, fd := rotStore(t)
	want := populateGenerations(t, s)
	idx := findSection(t, fd, s.metaAreaOff(s.metaWhich), secIndex)
	if err := fd.RotBits(idx, 3, 99); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(fd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := s2.RecoveryReport()
	if !rep.IndexRebuilt || rep.MetaFallback || rep.SuperblockFallback {
		t.Fatalf("expected only an index rebuild, got %+v", rep)
	}
	checkAll(t, s2, want)
	if err := s2.VerifyLabelIndex(); err != nil {
		t.Fatalf("rebuilt index inconsistent: %v", err)
	}
	for id, v := range want {
		ids := s2.ObjectsWithLabel(rotLabel(id % 7).Fingerprint())
		found := false
		for _, got := range ids {
			if got == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("object %d (%q) missing from rebuilt index", id, v)
		}
	}
}

// TestBitRotDataExtentQuarantinesOnlyThatObject is acceptance criterion
// (d): rot in one object's home extent quarantines exactly that object with
// a typed error while every other object keeps serving.
func TestBitRotDataExtentQuarantinesOnlyThatObject(t *testing.T) {
	s, fd := rotStore(t)
	want := populateGenerations(t, s)
	if err := s.Checkpoint(); err != nil { // drain the log: cold reads come from extents
		t.Fatal(err)
	}
	s2, err := Open(fd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const victim = uint64(13)
	off, ok := s2.objMap.Get(btree.K1(victim))
	if !ok {
		t.Fatal("victim has no home extent")
	}
	size := s2.objSizes[victim]
	if err := fd.RotBits(disk.Region{Off: int64(off), Len: size}, 1, 5); err != nil {
		t.Fatal(err)
	}
	_, gerr := s2.Get(victim)
	if !errors.Is(gerr, ErrQuarantined) || !errors.Is(gerr, ErrCorrupt) {
		t.Fatalf("Get(victim) = %v; want ErrQuarantined matching ErrCorrupt", gerr)
	}
	var qe *QuarantineError
	if !errors.As(gerr, &qe) || qe.ID != victim {
		t.Fatalf("quarantine error does not identify the victim: %v", gerr)
	}
	// A repeated access answers from the quarantine verdict, still typed.
	if _, err := s2.Get(victim); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("second Get(victim) = %v", err)
	}
	for id, v := range want {
		if id == victim {
			continue
		}
		got, err := s2.Get(id)
		if err != nil || string(got) != v {
			t.Fatalf("bystander object %d = %q, %v; want %q", id, got, err, v)
		}
	}
	if q := s2.QuarantinedObjects(); len(q) != 1 || q[0] != victim {
		t.Fatalf("QuarantinedObjects = %v; want [%d]", q, victim)
	}
	st := s2.IntegrityStats()
	if st.QuarantineEvents != 1 || st.QuarantinedNow != 1 || st.CorruptionsDetected == 0 {
		t.Fatalf("integrity stats = %+v", st)
	}
	// Syncing the quarantined object must refuse rather than persist
	// unverifiable bytes.
	if err := s2.SyncObject(victim); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("SyncObject(victim) = %v; want ErrQuarantined", err)
	}
	// A rewrite replaces the damaged contents and lifts the quarantine.
	if err := s2.Put(victim, []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	if got, err := s2.Get(victim); err != nil || string(got) != "rewritten" {
		t.Fatalf("Get after rewrite = %q, %v", got, err)
	}
	if q := s2.QuarantinedObjects(); len(q) != 0 {
		t.Fatalf("quarantine not lifted by rewrite: %v", q)
	}
}

// TestBitRotWALTailReplaysValidPrefix: rot in the last committed log record
// is detected, the valid prefix replays, and the mount reports the damage.
func TestBitRotWALTailReplaysValidPrefix(t *testing.T) {
	s, fd := rotStore(t)
	for i := uint64(1); i <= 3; i++ {
		if err := s.Put(i, []byte(fmt.Sprintf("walled-%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := s.SyncObject(i); err != nil {
			t.Fatal(err)
		}
	}
	// Locate the committed tail from the on-disk log header and damage the
	// last record.
	hdr := make([]byte, 16)
	if _, err := fd.ReadAt(hdr, logOffset); err != nil {
		t.Fatal(err)
	}
	committed := int64(binary.LittleEndian.Uint64(hdr[8:]))
	if committed < 32 {
		t.Fatalf("committed = %d, expected three records", committed)
	}
	tail := disk.Region{Off: logOffset + 32 + committed - 16, Len: 16}
	if err := fd.RotBits(tail, 1, 11); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(fd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := s2.RecoveryReport()
	if !rep.WALDamaged {
		t.Fatalf("expected WAL damage report, got %+v", rep)
	}
	// The first two records precede the damage and must have replayed.
	for i := uint64(1); i <= 2; i++ {
		got, err := s2.Get(i)
		if err != nil || string(got) != fmt.Sprintf("walled-%d", i) {
			t.Fatalf("object %d from valid prefix = %q, %v", i, got, err)
		}
	}
	if _, err := s2.Get(3); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("object in damaged suffix: %v (want ErrNoSuchObject)", err)
	}
	if s2.IntegrityStats().CorruptionsDetected == 0 {
		t.Fatal("WAL damage not counted")
	}
}

func TestScrubCleanStoreFindsNothing(t *testing.T) {
	s, _ := rotStore(t)
	want := populateGenerations(t, s)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if st.CorruptionsFound != 0 || st.ObjectsQuarantined != 0 || st.IndexCorrupt {
		t.Fatalf("clean scrub found damage: %+v", st)
	}
	if st.SuperblockCopiesOK != 2 {
		t.Fatalf("superblock copies OK = %d, want 2", st.SuperblockCopiesOK)
	}
	if st.MetaAreasChecked != 2 || st.MetaAreasOK != 2 {
		t.Fatalf("meta areas checked/OK = %d/%d, want 2/2", st.MetaAreasChecked, st.MetaAreasOK)
	}
	if st.ObjectsChecked != len(want) {
		t.Fatalf("objects checked = %d, want %d", st.ObjectsChecked, len(want))
	}
	if st.BytesVerified == 0 {
		t.Fatal("scrub verified zero bytes")
	}
	is := s.IntegrityStats()
	if is.ScrubPasses != 1 || is.ScrubBytesVerified != uint64(st.BytesVerified) || is.LastScrub != st {
		t.Fatalf("scrub accounting: %+v", is)
	}
}

// TestScrubDetectsRotAndQuarantines: a scrub pass finds silently rotted
// extents before any access does, and quarantines them.
func TestScrubDetectsRotAndQuarantines(t *testing.T) {
	s, fd := rotStore(t)
	want := populateGenerations(t, s)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(fd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const victim = uint64(4)
	off, _ := s2.objMap.Get(btree.K1(victim))
	if err := fd.RotBits(disk.Region{Off: int64(off), Len: s2.objSizes[victim]}, 1, 3); err != nil {
		t.Fatal(err)
	}
	st, err := s2.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if st.ObjectsQuarantined != 1 || st.CorruptionsFound != 1 {
		t.Fatalf("scrub after rot: %+v", st)
	}
	if q := s2.QuarantinedObjects(); len(q) != 1 || q[0] != victim {
		t.Fatalf("QuarantinedObjects = %v", q)
	}
	if _, err := s2.Get(victim); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Get(victim) after scrub = %v", err)
	}
	// A second pass finds the same damage but quarantines nothing new.
	st2, err := s2.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if st2.ObjectsQuarantined != 0 || st2.CorruptionsFound != 1 {
		t.Fatalf("second scrub: %+v", st2)
	}
	for id, v := range want {
		if id == victim {
			continue
		}
		if got, err := s2.Get(id); err != nil || string(got) != v {
			t.Fatalf("bystander %d = %q, %v", id, got, err)
		}
	}
}

// TestBitRotSyncObjectsRefusesQuarantinedObject: the batched sync refuses a
// quarantined object with no resident copy, as SyncObject does, instead of
// reporting it durable.
func TestBitRotSyncObjectsRefusesQuarantinedObject(t *testing.T) {
	s, fd := rotStore(t)
	populateGenerations(t, s)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(fd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const victim, bystander = uint64(13), uint64(1)
	off, ok := s2.objMap.Get(btree.K1(victim))
	if !ok {
		t.Fatal("victim has no home extent")
	}
	if err := fd.RotBits(disk.Region{Off: int64(off), Len: s2.objSizes[victim]}, 1, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Get(victim); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Get(victim) = %v; want ErrQuarantined", err)
	}
	errs := s2.SyncObjects([]uint64{bystander, victim})
	if errs[0] != nil {
		t.Errorf("SyncObjects: bystander = %v; want nil", errs[0])
	}
	if !errors.Is(errs[1], ErrQuarantined) {
		t.Errorf("SyncObjects: victim = %v; want ErrQuarantined", errs[1])
	}
}
