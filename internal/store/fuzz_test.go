package store

import (
	"bytes"
	"errors"
	"testing"

	"histar/internal/disk"
	"histar/internal/vclock"
)

// FuzzOpenMetadata overwrites the superblock page and the metadata area the
// superblock references with arbitrary bytes — the fuzz input fills the page
// first and the area after it, zero-padded — on an image populated as
// populateGenerations builds it, and enforces Open's contract: it never
// panics; it either mounts or returns an error matching ErrCorrupt (device
// errors aside); and after a mount every committed object reads back
// exactly or fails with an error matching ErrCorrupt or ErrQuarantined.
func FuzzOpenMetadata(f *testing.F) {
	s, fd := rotStore(f)
	want := populateGenerations(f, s)
	img := make([]byte, fd.Size())
	if _, err := fd.ReadAt(img, 0); err != nil {
		f.Fatal(err)
	}
	// Only the written prefix of the image needs copying per execution.
	used := len(img)
	for used > 0 && img[used-1] == 0 {
		used--
	}
	img = img[:used]
	areaOff := s.metaAreaOff(s.metaWhich)
	areaLen := metaHeaderSize + metaPayloadLen(f, fd, areaOff)
	valid := append(append([]byte(nil), img[:superblockSize]...), img[areaOff:areaOff+areaLen]...)
	f.Add(valid)
	for _, n := range []int{0, sbCopySize, sbBackupOff + sbCopySize, superblockSize, superblockSize + metaHeaderSize, len(valid) - 1} {
		f.Add(valid[:n])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		d := disk.New(disk.Params{Sectors: 1 << 14}, &vclock.Clock{})
		sb := make([]byte, superblockSize)
		area := make([]byte, rotMetaSize)
		n := copy(sb, data)
		copy(area, data[n:])
		for _, w := range []struct {
			off int64
			b   []byte
		}{{0, img}, {superblockOffset, sb}, {areaOff, area}} {
			if _, err := d.WriteAt(w.b, w.off); err != nil {
				t.Fatal(err)
			}
		}
		s2, err := Open(d, Options{})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, disk.ErrOutOfRange) {
				t.Fatalf("Open returned a non-corruption error: %v", err)
			}
			return
		}
		for id, v := range want {
			got, err := s2.Get(id)
			switch {
			case err == nil && !bytes.Equal(got, []byte(v)):
				t.Fatalf("object %d = %q after mount, want %q", id, got, v)
			case err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrQuarantined):
				t.Fatalf("object %d: untyped error %v", id, err)
			}
		}
	})
}
