package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"histar/internal/disk"
	"histar/internal/vclock"
)

func testLog(t *testing.T, size int64) (*Log, *disk.Disk) {
	t.Helper()
	d := disk.New(disk.Params{Sectors: 1 << 15}, &vclock.Clock{})
	l, err := New(d, 0, size)
	if err != nil {
		t.Fatal(err)
	}
	return l, d
}

func TestCommitAndRecover(t *testing.T) {
	l, d := testLog(t, 1<<20)
	l.Append(Record{ObjectID: 1, Data: []byte("object one")})
	l.Append(Record{ObjectID: 2, Data: []byte("object two")})
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	l.Append(Record{ObjectID: 3, Delete: true})
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}

	// Reattach (as after a reboot) and recover.
	l2 := Open(d, 0, 1<<20)
	recs, err := l2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("recovered %d records", len(recs))
	}
	if recs[0].ObjectID != 1 || !bytes.Equal(recs[0].Data, []byte("object one")) {
		t.Errorf("record 0 = %+v", recs[0])
	}
	if !recs[2].Delete || recs[2].ObjectID != 3 {
		t.Errorf("record 2 = %+v", recs[2])
	}
}

func TestUncommittedRecordsAreNotRecovered(t *testing.T) {
	l, d := testLog(t, 1<<20)
	l.Append(Record{ObjectID: 1, Data: []byte("committed")})
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	l.Append(Record{ObjectID: 2, Data: []byte("lost")})
	// No commit: a crash discards it.
	recs, err := Open(d, 0, 1<<20).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ObjectID != 1 {
		t.Errorf("recovered %+v", recs)
	}
}

func TestTruncate(t *testing.T) {
	l, d := testLog(t, 1<<20)
	l.Append(Record{ObjectID: 1, Data: make([]byte, 100)})
	l.Commit()
	if l.CommittedBytes() == 0 {
		t.Fatal("expected committed bytes")
	}
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	if l.CommittedBytes() != 0 {
		t.Error("truncate should reset committed bytes")
	}
	recs, err := Open(d, 0, 1<<20).Recover()
	if err != nil || len(recs) != 0 {
		t.Errorf("recover after truncate: %d records, %v", len(recs), err)
	}
}

func TestLogFull(t *testing.T) {
	l, _ := testLog(t, 4096)
	// A record that would fit an empty region but not the remaining space:
	// recoverable, so Commit reports ErrFull and keeps it pending.
	if err := l.Append(Record{ObjectID: 1, Data: make([]byte, 2500)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{ObjectID: 2, Data: make([]byte, 2500)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); !errors.Is(err, ErrFull) {
		t.Errorf("commit into full log: err=%v", err)
	}
	// A record that could never fit is rejected at Append instead.
	if err := l.Append(Record{ObjectID: 3, Data: make([]byte, 8192)}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("append of oversize record: err=%v", err)
	}
}

func TestEmptyCommitIsNoop(t *testing.T) {
	l, _ := testLog(t, 1<<20)
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Commits != 0 {
		t.Errorf("empty commit counted: %d", st.Commits)
	}
}

func TestCorruptRecordDetected(t *testing.T) {
	l, d := testLog(t, 1<<20)
	l.Append(Record{ObjectID: 7, Data: []byte("good record")})
	l.Append(Record{ObjectID: 8, Data: []byte("to be damaged")})
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the second record's data area.
	evil := []byte{0xff}
	if _, err := d.WriteAt(evil, 16+19+11+19+4); err != nil {
		t.Fatal(err)
	}
	recs, err := Open(d, 0, 1<<20).Recover()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("expected ErrCorrupt, got %v (recs=%d)", err, len(recs))
	}
	if len(recs) != 1 || recs[0].ObjectID != 7 {
		t.Errorf("records before damage should survive: %+v", recs)
	}
}

func TestCorruptRecoverySealsValidPrefix(t *testing.T) {
	l, d := testLog(t, 1<<20)
	l.Append(Record{ObjectID: 1, Data: []byte("keep me")})
	l.Append(Record{ObjectID: 2, Data: []byte("damage me")})
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteAt([]byte{0xff}, 16+19+7+19+2); err != nil {
		t.Fatal(err)
	}
	l2 := Open(d, 0, 1<<20)
	if _, err := l2.Recover(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("expected ErrCorrupt, got %v", err)
	}
	// The log was resealed to the valid prefix: new commits append after it
	// and a fresh recovery sees prefix + new records with no error.
	l2.Append(Record{ObjectID: 3, Data: []byte("after reseal")})
	if err := l2.Commit(); err != nil {
		t.Fatal(err)
	}
	recs, err := Open(d, 0, 1<<20).Recover()
	if err != nil {
		t.Fatalf("recovery after reseal: %v", err)
	}
	if len(recs) != 2 || recs[0].ObjectID != 1 || recs[1].ObjectID != 3 {
		t.Errorf("recovered %+v", recs)
	}
}

func TestCorruptCommittedLengthRejected(t *testing.T) {
	l, d := testLog(t, 1<<16)
	l.Append(Record{ObjectID: 1, Data: []byte("x")})
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	// Scribble an impossible committed length into the header.
	var evil [8]byte
	for i := range evil {
		evil[i] = 0xff
	}
	if _, err := d.WriteAt(evil[:], 8); err != nil {
		t.Fatal(err)
	}
	recs, err := Open(d, 0, 1<<16).Recover()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("expected ErrCorrupt, got %v (%d recs)", err, len(recs))
	}
}

func TestLabelRecordsRoundTrip(t *testing.T) {
	l, d := testLog(t, 1<<20)
	lblBytes := []byte{2, 1, 17, 0, 0, 0, 0, 0, 0, 0, 3} // canonical {17:3} at default 2
	l.Append(Record{ObjectID: 5, Data: []byte("tainted contents"), Label: lblBytes})
	l.Append(Record{ObjectID: 6, Data: []byte("plain contents")})
	l.Append(Record{ObjectID: 5, Delete: true})
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	recs, err := Open(d, 0, 1<<20).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("recovered %d records", len(recs))
	}
	if !bytes.Equal(recs[0].Label, lblBytes) || !bytes.Equal(recs[0].Data, []byte("tainted contents")) {
		t.Errorf("labeled record = %+v", recs[0])
	}
	if recs[1].Label != nil {
		t.Errorf("unlabeled record grew a label: %+v", recs[1])
	}
	if !recs[2].Delete || recs[2].Label != nil {
		t.Errorf("tombstone = %+v", recs[2])
	}
}

func TestRecoverFreshRegion(t *testing.T) {
	d := disk.New(disk.Params{Sectors: 1 << 12}, &vclock.Clock{})
	l := Open(d, 0, 1<<16)
	recs, err := l.Recover()
	if err != nil || len(recs) != 0 {
		t.Errorf("fresh region: %d recs, %v", len(recs), err)
	}
}

func TestGroupCommitBatchesManyRecords(t *testing.T) {
	l, _ := testLog(t, 1<<22)
	for i := 0; i < 1000; i++ {
		l.Append(Record{ObjectID: uint64(i), Data: make([]byte, 64)})
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Commits != 1 || st.Appended != 1000 {
		t.Errorf("commits=%d appended=%d", st.Commits, st.Appended)
	}
}

func TestErrFullKeepsRecordsPendingForRetry(t *testing.T) {
	l, d := testLog(t, 4096)
	// Fill most of the region, then overflow it.
	l.Append(Record{ObjectID: 1, Data: make([]byte, 3000)})
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	l.Append(Record{ObjectID: 2, Data: make([]byte, 2000)})
	if err := l.Commit(); !errors.Is(err, ErrFull) {
		t.Fatalf("overflowing commit: err=%v", err)
	}
	// Truncate (as the store's checkpoint fallback does) and retry WITHOUT
	// re-appending: the pending record commits exactly once.
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	recs, err := Open(d, 0, 4096).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ObjectID != 2 {
		t.Fatalf("after retry: %+v", recs)
	}
}

func TestOversizeRecordRejectedAtAppend(t *testing.T) {
	l, d := testLog(t, 4096)
	// Never-committable records are refused before they enter the pending
	// set, so they can neither wedge the log nor be lost by a concurrent
	// caller's commit.
	if err := l.Append(Record{ObjectID: 1, Data: make([]byte, 64*1024)}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize data: err=%v, want ErrTooLarge", err)
	}
	if err := l.Append(Record{ObjectID: 3, Label: make([]byte, 70000)}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize label: err=%v, want ErrTooLarge", err)
	}
	// The log is unaffected: small records commit cleanly.
	if err := l.Append(Record{ObjectID: 2, Data: []byte("fits")}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	recs, err := Open(d, 0, 4096).Recover()
	if err != nil || len(recs) != 1 || recs[0].ObjectID != 2 {
		t.Fatalf("recover: %+v, %v", recs, err)
	}
	if st := l.Stats(); st.Appended != 1 {
		t.Errorf("rejected records counted as appended: %d", st.Appended)
	}
}

func TestUnsupportedVersionRefusedWithoutErasure(t *testing.T) {
	l, d := testLog(t, 1<<16)
	if err := l.Append(Record{ObjectID: 1, Data: []byte("future records")}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	// Pretend a newer format wrote this log: bump the version byte and fix
	// up the header CRC the way the newer code would have.
	setVersion := func(v byte) {
		hdr := make([]byte, logHeaderSize)
		if _, err := d.ReadAt(hdr, 0); err != nil {
			t.Fatal(err)
		}
		hdr[4] = v
		binary.LittleEndian.PutUint32(hdr[16:], crc32.Checksum(hdr[:16], castagnoli))
		if _, err := d.WriteAt(hdr, 0); err != nil {
			t.Fatal(err)
		}
	}
	// A future version and every retired one (0, 2, 3) are refused alike.
	for _, v := range []byte{9, 0, 2, 3} {
		setVersion(v)
		before := make([]byte, 1<<16)
		if _, err := d.ReadAt(before, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(d, 0, 1<<16).Recover(); !errors.Is(err, ErrVersion) {
			t.Fatalf("version %d: err=%v, want ErrVersion", v, err)
		}
		after := make([]byte, 1<<16)
		if _, err := d.ReadAt(after, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("version %d: refusal modified the log region", v)
		}
		// The region was left byte-for-byte intact: restoring the version
		// byte recovers the records.
		setVersion(logVersion)
		recs, err := Open(d, 0, 1<<16).Recover()
		if err != nil || len(recs) != 1 || string(recs[0].Data) != "future records" {
			t.Fatalf("after restoring version from %d: %+v, %v", v, recs, err)
		}
	}
}

func TestFlippedVersionByteIsCorruptionNotFutureFormat(t *testing.T) {
	// A bare version-byte flip (without a matching header CRC) is bit rot,
	// not a future format: the log must report ErrCorrupt rather than refuse
	// the mount as ErrVersion.  The same holds for a version-2-style header,
	// which ends after the committed length and so carries no CRC.
	for _, tc := range []struct {
		name  string
		patch func(hdr []byte)
	}{
		{"flipped version byte", func(hdr []byte) { hdr[4] = 9 }},
		{"v2-style 16-byte header", func(hdr []byte) {
			hdr[4] = 2
			clear(hdr[16:])
		}},
	} {
		l, d := testLog(t, 1<<16)
		if err := l.Append(Record{ObjectID: 1, Data: []byte("x")}); err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
		hdr := make([]byte, logHeaderSize)
		if _, err := d.ReadAt(hdr, 0); err != nil {
			t.Fatal(err)
		}
		tc.patch(hdr)
		if _, err := d.WriteAt(hdr, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(d, 0, 1<<16).Recover(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err=%v, want ErrCorrupt", tc.name, err)
		}
	}
}

func TestDamagedMagicIsCorruptionNotFresh(t *testing.T) {
	l, d := testLog(t, 1<<16)
	if err := l.Append(Record{ObjectID: 7, Data: []byte("y")}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteAt([]byte{0xde}, 1); err != nil {
		t.Fatal(err)
	}
	recs, err := Open(d, 0, 1<<16).Recover()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("rotted magic must be ErrCorrupt, got %v (recs=%d)", err, len(recs))
	}
	// The reseal leaves a mountable empty log.
	recs, err = Open(d, 0, 1<<16).Recover()
	if err != nil || len(recs) != 0 {
		t.Fatalf("after reseal: %d recs, %v", len(recs), err)
	}
}

func TestAppendBatchCommitsAtomically(t *testing.T) {
	l, d := testLog(t, 1<<20)
	batch := []Record{
		{ObjectID: 1, Data: []byte("batched one")},
		{ObjectID: 2, Data: []byte("batched two"), Label: []byte{2, 0}},
		{ObjectID: 3, Delete: true},
	}
	if err := l.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Commits != 1 || st.Batches != 1 || st.BatchRecords != 3 || st.MaxBatch != 3 {
		t.Errorf("stats = %+v", st)
	}
	recs, err := Open(d, 0, 1<<20).Recover()
	if err != nil || len(recs) != 3 {
		t.Fatalf("recover: %d records, %v", len(recs), err)
	}
	if recs[1].ObjectID != 2 || !bytes.Equal(recs[1].Label, []byte{2, 0}) {
		t.Errorf("batched label record = %+v", recs[1])
	}
	if !recs[2].Delete {
		t.Errorf("batched tombstone = %+v", recs[2])
	}
}

func TestAppendBatchRejectsWholeBatchOnOversizeRecord(t *testing.T) {
	l, _ := testLog(t, 4096)
	batch := []Record{
		{ObjectID: 1, Data: []byte("fits")},
		{ObjectID: 2, Data: make([]byte, 8192)}, // could never commit
	}
	if err := l.AppendBatch(batch); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize batch: err=%v", err)
	}
	if n := l.PendingBytes(); n != 0 {
		t.Errorf("rejected batch left %d pending bytes", n)
	}
	if st := l.Stats(); st.Appended != 0 || st.Batches != 0 {
		t.Errorf("rejected batch counted: %+v", st)
	}
}

func TestDropPendingDiscardsUncommittedRecords(t *testing.T) {
	l, d := testLog(t, 1<<20)
	if err := l.Append(Record{ObjectID: 1, Data: []byte("committed")}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch([]Record{{ObjectID: 2, Data: []byte("abandoned")}}); err != nil {
		t.Fatal(err)
	}
	l.DropPending()
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	recs, err := Open(d, 0, 1<<20).Recover()
	if err != nil || len(recs) != 1 || recs[0].ObjectID != 1 {
		t.Fatalf("recover after drop: %+v, %v", recs, err)
	}
}

// commitRecord appends one record and commits it.
func commitRecord(t *testing.T, l *Log, id uint64, data []byte) {
	t.Helper()
	if err := l.Append(Record{ObjectID: id, Data: data}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
}

func recordIDs(recs []Record) []uint64 {
	var ids []uint64
	for _, r := range recs {
		ids = append(ids, r.ObjectID)
	}
	return ids
}

func TestMarkerReplayStartAfterRecover(t *testing.T) {
	l, d := testLog(t, 1<<16)
	commitRecord(t, l, 1, []byte("gen one"))
	commitRecord(t, l, 2, []byte("gen one too"))
	if err := l.AppendMark(5); err != nil {
		t.Fatal(err)
	}
	commitRecord(t, l, 3, []byte("gen two"))
	if err := l.AppendMark(6); err != nil {
		t.Fatal(err)
	}

	l2 := Open(d, 0, 1<<16)
	recs, err := l2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	// Full replay sees every record and both markers, in order.
	if len(recs) != 5 || !recs[2].Mark || recs[2].ObjectID != 5 || !recs[4].Mark || recs[4].ObjectID != 6 {
		t.Fatalf("recovered %+v", recs)
	}
	// Replay from epoch 5's marker sees only the generation after it.
	idx, ok := l2.ReplayStart(5)
	if !ok || idx != 3 || recs[idx].ObjectID != 3 {
		t.Fatalf("ReplayStart(5) = %d, %v", idx, ok)
	}
	// The last marker opens an empty generation.
	if idx, ok := l2.ReplayStart(6); !ok || idx != len(recs) {
		t.Fatalf("ReplayStart(6) = %d, %v; want %d", idx, ok, len(recs))
	}
	if _, ok := l2.ReplayStart(7); ok {
		t.Fatal("ReplayStart found a marker for an epoch never written")
	}
}

func TestReclaimBeforeAdvancesStartAndKeepsMarker(t *testing.T) {
	l, d := testLog(t, 1<<16)
	commitRecord(t, l, 1, []byte("dead"))
	if err := l.AppendMark(1); err != nil {
		t.Fatal(err)
	}
	commitRecord(t, l, 2, []byte("retained"))
	if err := l.AppendMark(2); err != nil {
		t.Fatal(err)
	}
	commitRecord(t, l, 3, bytes.Repeat([]byte("live"), 64))
	committed := l.CommittedBytes()

	// An unknown epoch reclaims nothing.
	if err := l.ReclaimBefore(9); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Reclaims != 0 || l.LiveBytes() != committed {
		t.Fatalf("unknown epoch reclaimed: reclaims=%d live=%d of %d", st.Reclaims, l.LiveBytes(), committed)
	}

	if err := l.ReclaimBefore(1); err != nil {
		t.Fatal(err)
	}
	dead := encodedSize(Record{ObjectID: 1, Data: []byte("dead")})
	if st := l.Stats(); st.Reclaims != 1 || l.LiveBytes() != committed-dead {
		t.Fatalf("after ReclaimBefore(1): reclaims=%d live=%d, want %d", st.Reclaims, l.LiveBytes(), committed-dead)
	}
	// The start offset moved to the marker, which itself survives.
	l2 := Open(d, 0, 1<<16)
	recs, err := l2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || !recs[0].Mark || recs[0].ObjectID != 1 {
		t.Fatalf("recovered %+v", recs)
	}
	if idx, ok := l2.ReplayStart(1); !ok || idx != 1 || recs[idx].ObjectID != 2 {
		t.Fatalf("ReplayStart(1) = %d, %v", idx, ok)
	}
	if idx, ok := l2.ReplayStart(2); !ok || idx != 3 || recs[idx].ObjectID != 3 {
		t.Fatalf("ReplayStart(2) = %d, %v", idx, ok)
	}
}

func TestReclaimCompactsOnlyWhenLiveSuffixFitsDeadPrefix(t *testing.T) {
	for _, tc := range []struct {
		name             string
		deadLen, liveLen int
		compact          bool
	}{
		{"suffix fits", 4000, 1500, true},
		{"suffix overlaps", 100, 1500, false},
	} {
		l, d := testLog(t, 1<<16)
		commitRecord(t, l, 1, make([]byte, tc.deadLen))
		if err := l.AppendMark(1); err != nil {
			t.Fatal(err)
		}
		commitRecord(t, l, 2, bytes.Repeat([]byte{7}, tc.liveLen))
		if err := l.ReclaimBefore(1); err != nil {
			t.Fatal(err)
		}
		st := l.Stats()
		if got := st.Compactions == 1; got != tc.compact {
			t.Fatalf("%s: compactions=%d, want compaction=%v", tc.name, st.Compactions, tc.compact)
		}
		// A compacted log holds only its live bytes; an uncompacted one
		// still carries the dead prefix behind the start offset.
		if got := l.CommittedBytes() == l.LiveBytes(); got != tc.compact {
			t.Fatalf("%s: committed=%d live=%d", tc.name, l.CommittedBytes(), l.LiveBytes())
		}
		recs, err := Open(d, 0, 1<<16).Recover()
		if err != nil || len(recs) != 2 || !recs[0].Mark || recs[1].ObjectID != 2 || len(recs[1].Data) != tc.liveLen {
			t.Fatalf("%s: recovered ids %v, %v", tc.name, recordIDs(recs), err)
		}
	}
}

// TestCompactionCrashAtEveryWriteBoundary kills the device at every write
// boundary of a reclaim-plus-compaction (and torn inside every multi-sector
// write) and checks that recovery sees either the whole pre-reclaim log or
// exactly the reclaimed one, never anything else.
func TestCompactionCrashAtEveryWriteBoundary(t *testing.T) {
	live := bytes.Repeat([]byte("suffix"), 250) // spans several sectors
	setup := func() (*Log, *disk.FaultDisk) {
		base := disk.New(disk.Params{Sectors: 1 << 8}, &vclock.Clock{})
		fd := disk.NewFaultDisk(base)
		l, err := New(fd, 0, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		commitRecord(t, l, 1, make([]byte, 4000))
		if err := l.AppendMark(1); err != nil {
			t.Fatal(err)
		}
		commitRecord(t, l, 2, live)
		return l, fd
	}
	l, fd := setup()
	fd.Arm(-1, disk.FaultTorn)
	if err := l.ReclaimBefore(1); err != nil {
		t.Fatal(err)
	}
	if l.Stats().Compactions != 1 {
		t.Fatal("setup did not compact")
	}
	points := []int64{0}
	prev := int64(0)
	for _, b := range fd.WriteBounds() {
		if b-prev > disk.SectorSize {
			points = append(points, prev+(b-prev)/2)
		}
		points = append(points, b)
		prev = b
	}
	for _, mode := range []disk.FaultMode{disk.FaultTorn, disk.FaultOmit, disk.FaultFlip} {
		for _, pt := range points {
			l, fd := setup()
			fd.Arm(pt, mode)
			_ = l.ReclaimBefore(1) // may fail at the fault
			l2 := Open(fd.Inner(), 0, 1<<16)
			recs, err := l2.Recover()
			if err != nil {
				t.Fatalf("%v@%d: recover: %v", mode, pt, err)
			}
			pre := len(recs) == 3 && !recs[0].Mark && recs[0].ObjectID == 1 && recs[1].Mark
			post := len(recs) == 2 && recs[0].Mark && recs[0].ObjectID == 1
			if !pre && !post {
				t.Fatalf("%v@%d: recovered ids %v: neither pre- nor post-compaction view", mode, pt, recordIDs(recs))
			}
			last := recs[len(recs)-1]
			if last.ObjectID != 2 || !bytes.Equal(last.Data, live) {
				t.Fatalf("%v@%d: live record damaged: %+v", mode, pt, last)
			}
			if idx, ok := l2.ReplayStart(1); !ok || recs[idx].ObjectID != 2 {
				t.Fatalf("%v@%d: ReplayStart(1) = %d, %v", mode, pt, idx, ok)
			}
		}
	}
}
