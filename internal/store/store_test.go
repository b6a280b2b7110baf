package store

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"histar/internal/disk"
	"histar/internal/label"
	"histar/internal/vclock"
	"histar/internal/wal"
)

func testStore(t *testing.T) (*Store, *disk.Disk) {
	t.Helper()
	d := disk.New(disk.Params{Sectors: 1 << 18, WriteCache: true}, &vclock.Clock{}) // 128 MB
	s, err := Format(d, Options{LogSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return s, d
}

func TestPutGetDelete(t *testing.T) {
	s, _ := testStore(t)
	if err := s.Put(1, []byte("object one")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(1)
	if err != nil || string(got) != "object one" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if err := s.Delete(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(1); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("Get after delete: %v", err)
	}
	if _, err := s.Get(999); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("Get of never-created object: %v", err)
	}
}

func TestCheckpointPersistsAcrossRemount(t *testing.T) {
	s, d := testStore(t)
	for i := uint64(0); i < 100; i++ {
		s.Put(i, []byte(fmt.Sprintf("object-%d-contents", i)))
	}
	s.Delete(50)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Remount as after a reboot.
	s2, err := Open(d, Options{LogSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		got, err := s2.Get(i)
		if i == 50 {
			if !errors.Is(err, ErrNoSuchObject) {
				t.Errorf("deleted object survived remount: %v", err)
			}
			continue
		}
		if err != nil || string(got) != fmt.Sprintf("object-%d-contents", i) {
			t.Fatalf("object %d after remount: %q, %v", i, got, err)
		}
	}
}

func TestAsyncWritesLostOnCrashSyncedSurvive(t *testing.T) {
	s, d := testStore(t)
	s.Put(1, []byte("synced data"))
	s.Put(2, []byte("async data"))
	if err := s.SyncObject(1); err != nil {
		t.Fatal(err)
	}
	// Crash: lose the disk write cache and remount without checkpointing.
	d.Crash()
	s2, err := Open(d, Options{LogSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get(1)
	if err != nil || string(got) != "synced data" {
		t.Errorf("synced object after crash: %q, %v", got, err)
	}
	if _, err := s2.Get(2); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("async object should be lost after crash, got err=%v", err)
	}
}

func TestSyncedDeleteSurvivesCrash(t *testing.T) {
	s, d := testStore(t)
	s.Put(1, []byte("to be removed"))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Delete(1)
	if err := s.SyncObject(1); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	s2, err := Open(d, Options{LogSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Get(1); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("synced delete should survive crash: %v", err)
	}
}

func TestGroupSyncCheaperThanPerObjectSync(t *testing.T) {
	// The single-level store's group sync should beat per-object sync by a
	// large factor on many-small-object workloads (the paper reports up to
	// ~200x for the LFS small-file benchmark).
	mk := func() (*Store, *vclock.Clock) {
		clk := &vclock.Clock{}
		d := disk.New(disk.Params{
			Sectors:              1 << 18,
			SeekTime:             8500000,
			RotationalLatency:    4150000,
			BandwidthBytesPerSec: 58e6,
			WriteCache:           true,
		}, clk)
		s, err := Format(d, Options{LogSize: 8 << 20})
		if err != nil {
			t.Fatal(err)
		}
		clk.Reset()
		return s, clk
	}
	data := bytes.Repeat([]byte("x"), 1024)

	perObj, clk1 := mk()
	for i := uint64(0); i < 200; i++ {
		perObj.Put(i, data)
		if err := perObj.SyncObject(i); err != nil {
			t.Fatal(err)
		}
	}
	perObjTime := clk1.Now()

	group, clk2 := mk()
	for i := uint64(0); i < 200; i++ {
		group.Put(i, data)
	}
	if err := group.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	groupTime := clk2.Now()

	if groupTime*10 > perObjTime {
		t.Errorf("group sync (%v) should be at least 10x cheaper than per-object sync (%v)", groupTime, perObjTime)
	}
}

func TestEvictCacheForcesDiskReads(t *testing.T) {
	s, d := testStore(t)
	payload := bytes.Repeat([]byte("y"), 4096)
	for i := uint64(0); i < 20; i++ {
		s.Put(i, payload)
	}
	s.Checkpoint()
	s.EvictCache()
	if s.Cached(3) {
		t.Error("object should have been evicted")
	}
	readsBefore := d.Stats().Reads
	got, err := s.Get(3)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Get after evict: %v", err)
	}
	if d.Stats().Reads == readsBefore {
		t.Error("uncached Get should have hit the disk")
	}
	if !s.Cached(3) {
		t.Error("Get should repopulate the cache")
	}
}

func TestLogFullTriggersCheckpointAndRetry(t *testing.T) {
	// A tiny log forces SyncObject to checkpoint and retry when it fills.
	d := disk.New(disk.Params{Sectors: 1 << 18, WriteCache: true}, &vclock.Clock{})
	s, err := Format(d, Options{LogSize: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("z"), 8*1024)
	for i := uint64(0); i < 20; i++ {
		s.Put(i, payload)
		if err := s.SyncObject(i); err != nil {
			t.Fatalf("sync %d: %v", i, err)
		}
	}
	if s.Stats().Checkpoints == 0 {
		t.Error("expected at least one checkpoint forced by a full log")
	}
	// Everything is still readable.
	for i := uint64(0); i < 20; i++ {
		if got, err := s.Get(i); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("object %d: %v", i, err)
		}
	}
}

func TestObjectGrowthRelocatesExtent(t *testing.T) {
	s, _ := testStore(t)
	s.Put(7, []byte("small"))
	s.Checkpoint()
	big := bytes.Repeat([]byte("B"), 64*1024)
	s.Put(7, big)
	s.Checkpoint()
	got, err := s.Get(7)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("after growth: %v (len %d)", err, len(got))
	}
	s.EvictCache()
	got, err = s.Get(7)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("after growth, uncached: %v (len %d)", err, len(got))
	}
}

func TestSameSizeRewriteIsCopyOnWrite(t *testing.T) {
	// A same-size update must not be rewritten over the snapshot's extent (a
	// torn write would destroy the only copy); it relocates, and the vacated
	// extent returns to the free list, so net free space is unchanged.
	s, _ := testStore(t)
	payload := bytes.Repeat([]byte("a"), 8192)
	s.Put(3, payload)
	s.Checkpoint()
	free := s.FreeBytes()
	update := bytes.Repeat([]byte("b"), 8192)
	s.Put(3, update)
	s.Checkpoint()
	if got := s.FreeBytes(); got != free {
		t.Errorf("same-size rewrite changed free space: %d -> %d", free, got)
	}
	s.EvictCache()
	got, err := s.Get(3)
	if err != nil || !bytes.Equal(got, update) {
		t.Fatalf("rewrite: %v", err)
	}
}

func TestFreeSpaceReclaimedOnDelete(t *testing.T) {
	s, _ := testStore(t)
	before := s.FreeBytes()
	payload := bytes.Repeat([]byte("c"), 1<<20)
	for i := uint64(0); i < 10; i++ {
		s.Put(i, payload)
	}
	s.Checkpoint()
	mid := s.FreeBytes()
	if mid >= before {
		t.Fatalf("allocations did not consume space: %d -> %d", before, mid)
	}
	for i := uint64(0); i < 10; i++ {
		s.Delete(i)
	}
	s.Checkpoint()
	after := s.FreeBytes()
	if after <= mid {
		t.Errorf("deletes did not reclaim space: %d -> %d", mid, after)
	}
}

func TestCloseRejectsFurtherUse(t *testing.T) {
	s, _ := testStore(t)
	s.Put(1, []byte("x"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(2, []byte("y")); !errors.Is(err, ErrClosed) {
		t.Errorf("Put after close: %v", err)
	}
	if _, err := s.Get(1); !errors.Is(err, ErrClosed) {
		t.Errorf("Get after close: %v", err)
	}
}

func TestOpenRejectsUnformattedDisk(t *testing.T) {
	d := disk.New(disk.Params{Sectors: 1 << 16}, &vclock.Clock{})
	if _, err := Open(d, Options{}); err == nil {
		t.Error("opening an unformatted disk should fail")
	}
}

func TestStatsTracking(t *testing.T) {
	s, _ := testStore(t)
	s.Put(1, []byte("a"))
	s.Get(1)
	s.SyncObject(1)
	s.Checkpoint()
	st := s.Stats()
	if st.Puts != 1 || st.Gets != 1 || st.ObjectSyncs != 1 || st.Checkpoints != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.LiveObjects != 1 {
		t.Errorf("live objects = %d", st.LiveObjects)
	}
}

func TestLabelPersistence(t *testing.T) {
	s, d := testStore(t)
	taint := label.New(label.L1, label.P(label.Category(17), label.L3))
	plain := label.New(label.L1)
	user := label.New(label.L1,
		label.P(label.Category(3), label.L3), label.P(label.Category(9), label.L0))
	if err := s.PutLabeled(1, taint, []byte("tainted file")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutLabeled(2, plain, []byte("public file")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(3, []byte("unlabeled")); err != nil {
		t.Fatal(err)
	}
	if err := s.SetLabel(3, user); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Label(1); !ok || !got.Equal(taint) {
		t.Fatalf("Label(1) = %v, %v", got, ok)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: labels must be restored from the checkpointed metadata in
	// canonical form, with fingerprints recomputed on load.
	r, err := Open(d, Options{LogSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if r.LabelCount() != 3 {
		t.Fatalf("LabelCount = %d, want 3", r.LabelCount())
	}
	for id, want := range map[uint64]label.Label{1: taint, 2: plain, 3: user} {
		got, ok := r.Label(id)
		if !ok || !got.Equal(want) {
			t.Errorf("Label(%d) = %v, %v; want %v", id, got, ok, want)
			continue
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Errorf("Label(%d) fingerprint = %x, want %x", id, got.Fingerprint(), want.Fingerprint())
		}
	}
	data, err := r.Get(1)
	if err != nil || string(data) != "tainted file" {
		t.Fatalf("Get(1) = %q, %v", data, err)
	}
}

func TestLabelDroppedWithDelete(t *testing.T) {
	s, _ := testStore(t)
	if err := s.PutLabeled(7, label.New(label.L2), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(7); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Label(7); ok {
		t.Error("label should be dropped with the object")
	}
	if s.LabelCount() != 0 {
		t.Errorf("LabelCount = %d, want 0", s.LabelCount())
	}
}

func TestSyncObjectPersistsLabelAcrossCrash(t *testing.T) {
	// The motivating bug for the WAL label records: before labels rode in
	// the log, a crash after SyncObject resurrected the object with no
	// label at all.
	s, d := testStore(t)
	taint := label.New(label.L1, label.P(label.Category(42), label.L3))
	if err := s.PutLabeled(9, taint, []byte("secret")); err != nil {
		t.Fatal(err)
	}
	if err := s.SyncObject(9); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	s2, err := Open(d, Options{LogSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Label(9)
	if !ok || !got.Equal(taint) {
		t.Fatalf("label after crash = %v, %v; want %v", got, ok, taint)
	}
	if got.Fingerprint() != taint.Fingerprint() {
		t.Error("fingerprint not rebuilt on replay")
	}
	if ids := s2.ObjectsWithLabel(taint.Fingerprint()); len(ids) != 1 || ids[0] != 9 {
		t.Errorf("index after crash = %v", ids)
	}
	if err := s2.VerifyLabelIndex(); err != nil {
		t.Error(err)
	}
	data, err := s2.Get(9)
	if err != nil || string(data) != "secret" {
		t.Fatalf("contents after crash: %q, %v", data, err)
	}
}

func TestObjectsWithLabelUsesIndexOnly(t *testing.T) {
	s, d := testStore(t)
	taint := label.New(label.L1, label.P(label.Category(7), label.L3))
	plain := label.New(label.L1)
	for i := uint64(0); i < 50; i++ {
		lbl := plain
		if i%5 == 0 {
			lbl = taint
		}
		if err := s.PutLabeled(i, lbl, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(d, Options{LogSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	decodesBefore := s2.Stats().LabelDecodes
	ids := s2.ObjectsWithLabel(taint.Fingerprint())
	if len(ids) != 10 {
		t.Fatalf("tainted scan found %d objects, want 10", len(ids))
	}
	for i, id := range ids {
		if id%5 != 0 {
			t.Errorf("id %d not tainted", id)
		}
		if i > 0 && ids[i-1] >= id {
			t.Error("ids not ascending")
		}
	}
	st := s2.Stats()
	if st.LabelDecodes != decodesBefore {
		t.Errorf("taint scan deserialized labels: %d -> %d decodes", decodesBefore, st.LabelDecodes)
	}
	if st.IndexQueries == 0 {
		t.Error("IndexQueries not counted")
	}
	if st.IndexEntries != st.LabeledObjects || st.IndexEntries != 50 {
		t.Errorf("index entries = %d, labeled = %d", st.IndexEntries, st.LabeledObjects)
	}
	if err := s2.VerifyLabelIndex(); err != nil {
		t.Error(err)
	}
}

func TestSetLabelMovesIndexEntry(t *testing.T) {
	s, _ := testStore(t)
	a := label.New(label.L1, label.P(label.Category(1), label.L3))
	b := label.New(label.L1, label.P(label.Category(2), label.L3))
	if err := s.PutLabeled(3, a, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.SetLabel(3, b); err != nil {
		t.Fatal(err)
	}
	if ids := s.ObjectsWithLabel(a.Fingerprint()); len(ids) != 0 {
		t.Errorf("old fingerprint still indexed: %v", ids)
	}
	if ids := s.ObjectsWithLabel(b.Fingerprint()); len(ids) != 1 || ids[0] != 3 {
		t.Errorf("new fingerprint not indexed: %v", ids)
	}
	if err := s.Delete(3); err != nil {
		t.Fatal(err)
	}
	if ids := s.ObjectsWithLabel(b.Fingerprint()); len(ids) != 0 {
		t.Errorf("deleted object still indexed: %v", ids)
	}
	if err := s.VerifyLabelIndex(); err != nil {
		t.Error(err)
	}
}

func TestOpenHonoursSuperblockGeometry(t *testing.T) {
	// Format with non-default log and metadata sizes; Open with zero
	// options must read the geometry back from the superblock.
	d := disk.New(disk.Params{Sectors: 1 << 14, WriteCache: true}, &vclock.Clock{}) // 8 MB
	s, err := Format(d, Options{LogSize: 128 << 10, MetaAreaSize: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	lbl := label.New(label.L1, label.P(label.Category(5), label.L3))
	if err := s.PutLabeled(1, lbl, []byte("geometry")); err != nil {
		t.Fatal(err)
	}
	if err := s.SyncObject(1); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	s2, err := Open(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if data, err := s2.Get(1); err != nil || string(data) != "geometry" {
		t.Fatalf("Get = %q, %v", data, err)
	}
	if got, ok := s2.Label(1); !ok || !got.Equal(lbl) {
		t.Fatalf("label = %v, %v", got, ok)
	}
}

func TestSyncObjectLogFullFallbackIsDurable(t *testing.T) {
	// Fill the log region until SyncObject's commit returns ErrFull and the
	// automatic Checkpoint-and-retry path runs, then crash: both the
	// checkpointed objects and the retried record (with its label) must
	// survive recovery.
	d := disk.New(disk.Params{Sectors: 1 << 18, WriteCache: true}, &vclock.Clock{})
	s, err := Format(d, Options{LogSize: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	taint := label.New(label.L1, label.P(label.Category(3), label.L3))
	payload := bytes.Repeat([]byte("z"), 8*1024)
	for i := uint64(0); i < 20; i++ {
		if err := s.PutLabeled(i, taint, payload); err != nil {
			t.Fatal(err)
		}
		if err := s.SyncObject(i); err != nil {
			t.Fatalf("sync %d: %v", i, err)
		}
	}
	if s.Stats().Checkpoints == 0 {
		t.Fatal("expected the full log to force a checkpoint")
	}
	d.Crash()
	s2, err := Open(d, Options{LogSize: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 20; i++ {
		if got, err := s2.Get(i); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("object %d after crash: %v", i, err)
		}
		if lbl, ok := s2.Label(i); !ok || !lbl.Equal(taint) {
			t.Fatalf("label %d after crash: %v, %v", i, lbl, ok)
		}
	}
	if ids := s2.ObjectsWithLabel(taint.Fingerprint()); len(ids) != 20 {
		t.Errorf("index after crash holds %d objects, want 20", len(ids))
	}
	if err := s2.VerifyLabelIndex(); err != nil {
		t.Error(err)
	}
}

// TestSealReclaimFailureRestoresSealedObjects: when the log is too full for
// the seal marker, the seal reclaims the retained generation; if that
// reclaim's header write fails, the checkpoint must fail at the seal with
// the device error, re-dirty everything it sealed, and leave the next
// checkpoint on a healthy device to make those objects durable.
func TestSealReclaimFailureRestoresSealedObjects(t *testing.T) {
	const (
		logSize   = 16 << 10
		walHeader = 32 // the log's on-disk header precedes its records
	)
	base := disk.New(disk.Params{Sectors: 1 << 14, WriteCache: true}, &vclock.Clock{})
	fd := disk.NewFaultDisk(base)
	s, err := Format(fd, Options{LogSize: logSize, MetaAreaSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[uint64][]byte)
	put := func(id uint64, data []byte, sync bool) {
		t.Helper()
		if err := s.Put(id, data); err != nil {
			t.Fatal(err)
		}
		if sync {
			if err := s.SyncObject(id); err != nil {
				t.Fatal(err)
			}
		}
		want[id] = data
	}
	// A record before the first checkpoint puts its seal marker past the
	// log start, so the next seal's reclaim has a boundary to advance to.
	put(1, []byte("before the first checkpoint"), true)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Fill the log with synced objects until the seal marker cannot fit.
	marker := wal.Record{Mark: true}.EncodedSize()
	for id := uint64(100); ; id++ {
		free := logSize - walHeader - s.l.CommittedBytes()
		if free < marker {
			break
		}
		n := free - marker // the record header is the marker's size
		if n > 1024 {
			n = 1024
		}
		put(id, bytes.Repeat([]byte{byte(id)}, int(n)), true)
	}
	// Async objects reach the disk only through the checkpoint.
	for id := uint64(1000); id < 1005; id++ {
		put(id, []byte(fmt.Sprintf("async object %d", id)), false)
	}
	if s.Stats().Checkpoints != 1 {
		t.Fatal("filling the log forced a checkpoint")
	}
	before := s.Stats()

	// The seal does no device I/O before the reclaim (the full log refuses
	// the marker without writing), so the reclaim's header write is the
	// first write to fail.
	fd.Arm(0, disk.FaultOmit)
	if err := s.Checkpoint(); !errors.Is(err, disk.ErrFault) {
		t.Fatalf("checkpoint with a failing reclaim = %v; want the device error", err)
	}
	after := s.Stats()
	if after.DirtyObjects != before.DirtyObjects || after.DirtyObjects == 0 {
		t.Fatalf("dirty objects %d after the failed checkpoint, want %d again", after.DirtyObjects, before.DirtyObjects)
	}
	// The failure stops the checkpoint at the seal: no stop-the-world body
	// ran, so no seal stall was recorded.
	if after.SealStallTotalNs != before.SealStallTotalNs || after.Checkpoints != before.Checkpoints {
		t.Fatalf("the failed seal went on to a checkpoint body: %+v", after)
	}

	fd.Arm(-1, disk.FaultTorn)
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint on a healthy device: %v", err)
	}
	if n := s.Stats().DirtyObjects; n != 0 {
		t.Fatalf("%d objects still dirty after the healthy checkpoint", n)
	}
	base.Crash()
	s2, err := Open(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for id, v := range want {
		if got, err := s2.Get(id); err != nil || !bytes.Equal(got, v) {
			t.Fatalf("object %d after crash = %q, %v", id, got, err)
		}
	}
}

func TestSyncObjectOversizeRecordFallsBackToCheckpoint(t *testing.T) {
	// A record that cannot fit even in an empty log is dropped from the log
	// (it could never commit and would wedge every later sync) and made
	// durable through the fallback checkpoint instead.
	d := disk.New(disk.Params{Sectors: 1 << 18, WriteCache: true}, &vclock.Clock{})
	s, err := Format(d, Options{LogSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("x"), 64*1024)
	taint := label.New(label.L1, label.P(label.Category(8), label.L3))
	if err := s.PutLabeled(1, taint, big); err != nil {
		t.Fatal(err)
	}
	if err := s.SyncObject(1); err != nil {
		t.Fatalf("oversize sync: %v", err)
	}
	if s.Stats().Checkpoints == 0 {
		t.Fatal("fallback checkpoint should have run")
	}
	// The log is not wedged: small syncs still work, exactly once each.
	if err := s.Put(2, []byte("small")); err != nil {
		t.Fatal(err)
	}
	if err := s.SyncObject(2); err != nil {
		t.Fatalf("small sync after oversize: %v", err)
	}
	d.Crash()
	s2, err := Open(d, Options{LogSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s2.Get(1); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("oversize object after crash: %v (%d bytes)", err, len(got))
	}
	if lbl, ok := s2.Label(1); !ok || !lbl.Equal(taint) {
		t.Fatalf("oversize object's label after crash: %v, %v", lbl, ok)
	}
	if got, err := s2.Get(2); err != nil || string(got) != "small" {
		t.Fatalf("small object after crash: %q, %v", got, err)
	}
}

func TestRecreateAfterLoggedTombstoneSurvivesResync(t *testing.T) {
	// Regression: the log can hold [data, tombstone, data] for one object.
	// Replay must clear the dead flag on the re-create, or the next
	// SyncObject logs a spurious deletion and the committed object is lost
	// on the following crash.
	s, d := testStore(t)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Put(5, []byte("first")))
	must(s.SyncObject(5))
	must(s.Delete(5))
	must(s.SyncObject(5))
	must(s.Put(5, []byte("second")))
	must(s.SyncObject(5))
	d.Crash()
	s2, err := Open(d, Options{LogSize: 1 << 20})
	must(err)
	if got, err := s2.Get(5); err != nil || string(got) != "second" {
		t.Fatalf("after first crash: %q, %v", got, err)
	}
	// The latent bug fired only on the next sync + crash.
	must(s2.SyncObject(5))
	d.Crash()
	s3, err := Open(d, Options{LogSize: 1 << 20})
	must(err)
	if got, err := s3.Get(5); err != nil || string(got) != "second" {
		t.Fatalf("re-created object lost after resync + crash: %q, %v", got, err)
	}
}

func TestSyncAfterUnlabeledRecreateClearsCheckpointedLabel(t *testing.T) {
	// An object can lose its label with no tombstone ever logged: delete and
	// re-create between syncs.  The label-less sync record is authoritative,
	// so replay must clear the checkpointed label rather than resurrect it.
	s, d := testStore(t)
	taint := label.New(label.L1, label.P(label.Category(6), label.L3))
	if err := s.PutLabeled(5, taint, []byte("labeled")); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(5); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(5, []byte("reborn, unlabeled")); err != nil {
		t.Fatal(err)
	}
	if err := s.SyncObject(5); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	s2, err := Open(d, Options{LogSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s2.Get(5); err != nil || string(got) != "reborn, unlabeled" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if lbl, ok := s2.Label(5); ok {
		t.Errorf("stale checkpointed label resurrected: %v", lbl)
	}
	if ids := s2.ObjectsWithLabel(taint.Fingerprint()); len(ids) != 0 {
		t.Errorf("stale index entry: %v", ids)
	}
	if err := s2.VerifyLabelIndex(); err != nil {
		t.Error(err)
	}
}

// TestFailedSnapshotWriteRedirtiesRelocatedObjects fails a checkpoint's
// metadata write after the body has relocated every sealed object, evicts
// the cache, and syncs those objects: the relocated extents belong to no
// committed snapshot, so each sync must log the sealed contents, and a crash
// followed by Open must bring them back.
func TestFailedSnapshotWriteRedirtiesRelocatedObjects(t *testing.T) {
	base := disk.New(disk.Params{Sectors: 1 << 14, WriteCache: true}, &vclock.Clock{})
	fd := disk.NewFaultDisk(base)
	s, err := Format(fd, Options{LogSize: 64 << 10, MetaAreaSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(1, []byte("committed by the first checkpoint")); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := map[uint64][]byte{
		1: []byte("rewritten, never synced before the failure"),
		2: []byte("created, never synced before the failure"),
	}
	for id, v := range want {
		if err := s.Put(id, v); err != nil {
			t.Fatal(err)
		}
	}
	// The body issues no flush before the snapshot's metadata barrier, so
	// the first flush after the seal is the one that fails.
	home := s.Stats().BytesHome
	s.ckptGate = func() { fd.ArmFlush(1) }
	if err := s.Checkpoint(); !errors.Is(err, disk.ErrFault) {
		t.Fatalf("checkpoint with a failing snapshot write = %v; want the device error", err)
	}
	s.ckptGate = nil
	if s.Stats().BytesHome == home {
		t.Fatal("the failed checkpoint relocated nothing; the test needs relocated objects")
	}
	fd.Arm(-1, disk.FaultTorn)
	s.EvictCache()
	for id := range want {
		if err := s.SyncObject(id); err != nil {
			t.Fatalf("SyncObject(%d): %v", id, err)
		}
	}
	base.Crash()
	s2, err := Open(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for id, v := range want {
		if got, err := s2.Get(id); err != nil || !bytes.Equal(got, v) {
			t.Fatalf("object %d after crash = %q, %v; want %q", id, got, err, v)
		}
	}
}

// TestFailedSnapshotWriteKeepsVacatedExtentsAllocated fails the snapshot
// write of a checkpoint that relocated an object out of a dedicated extent
// the committed snapshot still references, then checkpoints again and loses
// power before that snapshot commits.  The vacated extent must not have been
// reused meanwhile: after Open, every object of the committed snapshot
// reads back intact.
func TestFailedSnapshotWriteKeepsVacatedExtentsAllocated(t *testing.T) {
	base := disk.New(disk.Params{Sectors: 1 << 14}, &vclock.Clock{}) // 8 MB, no write cache
	fd := disk.NewFaultDisk(base)
	s, err := Format(fd, Options{LogSize: 64 << 10, MetaAreaSize: 64 << 10, SegmentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	// Larger than half a segment: dedicated extents, freed individually.
	big := func(fill byte) []byte { return bytes.Repeat([]byte{fill}, 100<<10) }
	committed := map[uint64][]byte{1: big('a'), 2: big('b')}
	for id, v := range committed {
		if err := s.Put(id, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(1, big('c')); err != nil {
		t.Fatal(err)
	}
	s.ckptGate = func() { fd.ArmFlush(1) }
	if err := s.Checkpoint(); !errors.Is(err, disk.ErrFault) {
		t.Fatalf("checkpoint with a failing snapshot write = %v; want the device error", err)
	}
	fd.Arm(-1, disk.FaultTorn)
	if err := s.Put(3, big('d')); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); !errors.Is(err, disk.ErrFault) {
		t.Fatalf("second checkpoint = %v; want the device error", err)
	}
	s.ckptGate = nil
	base.Crash()
	s2, err := Open(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for id, v := range committed {
		if got, err := s2.Get(id); err != nil || !bytes.Equal(got, v) {
			t.Fatalf("object %d of the committed snapshot = %d bytes, %v; want its %d committed bytes", id, len(got), err, len(v))
		}
	}
}
