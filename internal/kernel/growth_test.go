package kernel

import (
	"bytes"
	"testing"

	"histar/internal/label"
)

// Segment growth reuses spare capacity (amortized append growth), so these
// tests pin the two ways reuse could leak bytes: stale bytes a truncation
// left in the spare capacity, and a snapshot's view of a frozen array.

func TestSegmentGrowthAfterTruncateReadsZeros(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	seg, err := tc.SegmentCreate(root, label.New(label.L1), "grow", 0)
	if err != nil {
		t.Fatal(err)
	}
	ce := CEnt{root, seg}
	if err := tc.SegmentWrite(ce, 0, bytes.Repeat([]byte{0xff}, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := tc.SegmentResize(ce, 100); err != nil {
		t.Fatal(err)
	}
	// A write past the end: the gap it opens must read as zeros.
	if err := tc.SegmentWrite(ce, 3000, []byte("x")); err != nil {
		t.Fatal(err)
	}
	got, err := tc.SegmentRead(ce, 100, 2900)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 2900)) {
		t.Fatal("write past the end after a truncate exposed stale bytes in the gap")
	}
	// And a resize that grows the segment again.
	if err := tc.SegmentResize(ce, 10); err != nil {
		t.Fatal(err)
	}
	if err := tc.SegmentResize(ce, 4096); err != nil {
		t.Fatal(err)
	}
	got, err = tc.SegmentRead(ce, 10, 4086)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 4086)) {
		t.Fatal("growing resize after a truncate exposed stale bytes")
	}
}

// snapshotOneSegment builds a sandbox holding one 1 KiB patterned segment,
// snapshots it, and returns the sandbox, the segment and a function that
// reads the snapshot's copy of the segment through a fresh clone.
func snapshotOneSegment(t *testing.T, k *Kernel, tc *ThreadCall) (ID, ID, []byte, func() []byte) {
	t.Helper()
	root := k.RootContainer()
	sandbox, segs := buildSandbox(t, tc, root, label.New(label.L1), 1, 1024)
	want, err := tc.SegmentRead(CEnt{sandbox, segs[0]}, 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	info, err := tc.ContainerSnapshot(CEnt{root, sandbox}, "growth")
	if err != nil {
		t.Fatal(err)
	}
	viaClone := func() []byte {
		res, err := tc.ContainerClone(info.Lineage, root, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tc.SegmentRead(CEnt{res.Root, res.IDMap[segs[0]]}, 0, 1024)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	return sandbox, segs[0], want, viaClone
}

func TestSnapshotTruncateGrowKeepsSnapshotBytes(t *testing.T) {
	k, tc := boot(t)
	sandbox, seg, want, viaClone := snapshotOneSegment(t, k, tc)
	ce := CEnt{sandbox, seg}
	// Truncation keeps sharing the frozen array; growing back into its
	// capacity must copy rather than write the snapshot's bytes.
	if err := tc.SegmentResize(ce, 10); err != nil {
		t.Fatal(err)
	}
	if err := tc.SegmentWrite(ce, 500, []byte("grown in place?")); err != nil {
		t.Fatal(err)
	}
	if err := tc.SegmentResize(ce, 1024); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaClone(), want) {
		t.Fatal("snapshot → truncate → grow changed the snapshot's bytes")
	}
}

func TestMemWriteBreaksSnapshotCOW(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	sandbox, seg, want, viaClone := snapshotOneSegment(t, k, tc)
	as, err := tc.AddressSpaceCreate(root, label.New(label.L1), "as")
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.AddressSpaceSet(CEnt{root, as}, []Mapping{{
		VA: 0x10000, Seg: CEnt{sandbox, seg}, NPages: 1, Flags: MapRead | MapWrite,
	}}); err != nil {
		t.Fatal(err)
	}
	if err := tc.SelfSetAddressSpace(CEnt{root, as}); err != nil {
		t.Fatal(err)
	}
	copied := k.SnapshotStats().CopiedBytes
	if err := tc.MemWrite(0x10000, []byte("store through a mapping")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaClone(), want) {
		t.Fatal("a store through a mapping changed the snapshot's bytes")
	}
	if got := k.SnapshotStats().CopiedBytes - copied; got != 1024 {
		t.Errorf("copied bytes for the COW break = %d, want 1024", got)
	}
}
