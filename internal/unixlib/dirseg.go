package unixlib

import (
	"encoding/binary"
	"errors"
	"math"

	"histar/internal/kernel"
)

// Directory segments (Section 5.1): each directory container holds a special
// segment mapping file names to object IDs.  Directory operations are
// synchronized with a mutex word in the segment (built on the kernel futex),
// and readers that cannot write the directory obtain a consistent view by
// checking a generation number and busy flag before and after each read.
//
// Layout of a directory segment:
//
//	offset  0: mutex word (futex; 0 = unlocked, 1 = locked)
//	offset  8: generation number
//	offset 16: busy flag
//	offset 24: entry count
//	offset 32: entries — {u16 name length, name bytes, u64 object ID, u8 type}
const (
	dsMutexOff = 0
	dsGenOff   = 8
	dsBusyOff  = 16
	dsCountOff = 24
	dsDataOff  = 32
)

// DirEntry is one name binding in a directory.
type DirEntry struct {
	Name string
	ID   kernel.ID
	Type kernel.ObjectType
}

func encodeDirEntries(entries []DirEntry) []byte {
	buf := make([]byte, dsDataOff)
	binary.LittleEndian.PutUint64(buf[dsCountOff:], uint64(len(entries)))
	for _, e := range entries {
		var hdr [2]byte
		binary.LittleEndian.PutUint16(hdr[:], uint16(len(e.Name)))
		buf = append(buf, hdr[:]...)
		buf = append(buf, e.Name...)
		var tail [9]byte
		binary.LittleEndian.PutUint64(tail[:8], uint64(e.ID))
		tail[8] = byte(e.Type)
		buf = append(buf, tail[:]...)
	}
	return buf
}

func decodeDirEntries(buf []byte) []DirEntry {
	if len(buf) < dsDataOff {
		return nil
	}
	count := binary.LittleEndian.Uint64(buf[dsCountOff:])
	out := make([]DirEntry, 0, count)
	p := buf[dsDataOff:]
	for i := uint64(0); i < count && len(p) >= 2; i++ {
		nameLen := int(binary.LittleEndian.Uint16(p))
		p = p[2:]
		if len(p) < nameLen+9 {
			break
		}
		name := string(p[:nameLen])
		p = p[nameLen:]
		id := kernel.ID(binary.LittleEndian.Uint64(p[:8]))
		typ := kernel.ObjectType(p[8])
		p = p[9:]
		out = append(out, DirEntry{Name: name, ID: id, Type: typ})
	}
	return out
}

// dirSegCE returns the container entry of a directory's segment, whose ID is
// stored in the directory container's metadata.  The binding is immutable
// once the directory exists, so it is served from the sharded dirSegs cache;
// only the first lookup of a directory pays the ObjectStat syscall.
func (sys *System) dirSegCE(tc *kernel.ThreadCall, dir kernel.ID) (kernel.CEnt, error) {
	shard := &sys.dirSegs[uint64(dir)%dirSegShards]
	shard.mu.RLock()
	segID, ok := shard.m[dir]
	shard.mu.RUnlock()
	if ok {
		return kernel.CEnt{Container: dir, Object: segID}, nil
	}
	st, err := tc.ObjectStat(kernel.Self(dir))
	if err != nil {
		return kernel.CEnt{}, mapKernelErr(err)
	}
	segID = kernel.ID(binary.LittleEndian.Uint64(st.Metadata[:8]))
	if segID == kernel.NilID {
		return kernel.CEnt{}, ErrNotDir
	}
	shard.mu.Lock()
	shard.m[dir] = segID
	shard.mu.Unlock()
	return kernel.CEnt{Container: dir, Object: segID}, nil
}

// lockDir acquires the directory mutex.  Threads that cannot write the
// directory segment get ErrPermission from the underlying write, exactly as
// the paper describes ("users that cannot write a directory cannot acquire
// the mutex").
func (sys *System) lockDir(tc *kernel.ThreadCall, seg kernel.CEnt) error {
	for {
		// Atomically set the mutex word 0 → 1 (a user-level cmpxchg on the
		// mapped directory segment).
		ok, err := tc.SegmentCompareSwap(seg, dsMutexOff, 0, 1)
		if err != nil {
			return mapKernelErr(err)
		}
		if ok {
			// Mark busy for lock-free readers.
			var busy [8]byte
			binary.LittleEndian.PutUint64(busy[:], 1)
			if err := tc.SegmentWrite(seg, dsBusyOff, busy[:]); err != nil {
				return mapKernelErr(err)
			}
			return nil
		}
		// Locked by someone else: wait on the futex.
		if err := tc.FutexWait(seg, dsMutexOff, 1); err != nil {
			return mapKernelErr(err)
		}
	}
}

// unlockDir releases the directory mutex, bumping the generation number.
func (sys *System) unlockDir(tc *kernel.ThreadCall, seg kernel.CEnt) error {
	genBytes, err := tc.SegmentRead(seg, dsGenOff, 8)
	if err != nil {
		return mapKernelErr(err)
	}
	gen := binary.LittleEndian.Uint64(genBytes) + 1
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], gen)
	if err := tc.SegmentWrite(seg, dsGenOff, buf[:]); err != nil {
		return mapKernelErr(err)
	}
	var zero [8]byte
	if err := tc.SegmentWrite(seg, dsBusyOff, zero[:]); err != nil {
		return mapKernelErr(err)
	}
	if err := tc.SegmentWrite(seg, dsMutexOff, zero[:]); err != nil {
		return mapKernelErr(err)
	}
	_, err = tc.FutexWake(seg, dsMutexOff, 1)
	return mapKernelErr(err)
}

// readDirEntries returns a consistent snapshot of a directory's entries.
// Writers hold the mutex; readers without write permission retry until the
// generation number is stable and the busy flag clear.
//
// The three reads of one attempt (generation+busy, whole segment, generation
// again) go through the syscall ring as a single chained batch: one kernel
// entry and — because same-target entries coalesce — one lock round-trip on
// the directory segment, where the direct path paid four syscalls
// (read, len, read, read).  The generation/busy protocol is kept even though
// a coalesced batch reads atomically under the segment's lock: a writer
// holding the user-level directory mutex updates the segment across several
// syscalls, so a batch can still observe a mid-update (busy) state.
func (sys *System) readDirEntries(tc *kernel.ThreadCall, seg kernel.CEnt) ([]DirEntry, error) {
	r := tc.NewRing()
	for attempt := 0; ; attempt++ {
		r.Submit(
			kernel.RingEntry{Op: kernel.OpSegmentRead, Seg: seg, Off: dsGenOff, Len: 16},
			// SegmentRead clamps to the segment's length, so asking for
			// the most an int allows reads the whole segment.
			kernel.RingEntry{Op: kernel.OpSegmentRead, Seg: seg, Off: 0, Len: math.MaxInt, Chain: true},
			kernel.RingEntry{Op: kernel.OpSegmentRead, Seg: seg, Off: dsGenOff, Len: 8, Chain: true},
		)
		comps, err := r.Wait(3)
		if err != nil {
			return nil, mapKernelErr(err)
		}
		for i := range comps {
			if comps[i].Err != nil {
				return nil, mapKernelErr(comps[i].Err)
			}
		}
		before, buf, after := comps[0].Val, comps[1].Val, comps[2].Val
		if len(before) < 16 || len(after) < 8 {
			return nil, ErrInvalid
		}
		genBefore := binary.LittleEndian.Uint64(before[:8])
		busy := binary.LittleEndian.Uint64(before[8:16])
		genAfter := binary.LittleEndian.Uint64(after)
		if busy == 0 && genBefore == genAfter {
			return decodeDirEntries(buf), nil
		}
		if attempt > 10000 {
			return decodeDirEntries(buf), nil
		}
	}
}

// readDirEntriesLocked reads the directory's entries without the
// generation/busy consistency protocol; callers holding the directory mutex
// use it (a writer would otherwise spin on its own busy flag).
func (sys *System) readDirEntriesLocked(tc *kernel.ThreadCall, seg kernel.CEnt) ([]DirEntry, error) {
	n, err := tc.SegmentLen(seg)
	if err != nil {
		return nil, mapKernelErr(err)
	}
	buf, err := tc.SegmentRead(seg, 0, n)
	if err != nil {
		return nil, mapKernelErr(err)
	}
	return decodeDirEntries(buf), nil
}

// writeDirEntries replaces the directory's entries; the caller must hold the
// directory mutex.
func (sys *System) writeDirEntries(tc *kernel.ThreadCall, seg kernel.CEnt, entries []DirEntry) error {
	buf := encodeDirEntries(entries)
	// Preserve the mutex/generation/busy words at the front.
	head, err := tc.SegmentRead(seg, 0, dsDataOff)
	if err != nil {
		return mapKernelErr(err)
	}
	copy(buf[:dsDataOff], head)
	binary.LittleEndian.PutUint64(buf[dsCountOff:], uint64(len(entries)))
	if err := sys.segResize(tc, seg, len(buf)); err != nil {
		return err
	}
	if err := sys.segWrite(tc, seg, 0, buf); err != nil {
		return err
	}
	return sys.markDirty(seg.Object)
}

// mapKernelErr translates kernel errors into the library's errno-style
// errors, leaving nil and library errors untouched.
func mapKernelErr(err error) error {
	switch err {
	case nil:
		return nil
	case kernel.ErrLabel, kernel.ErrClearance, kernel.ErrImmutable:
		return ErrPermission
	case kernel.ErrNoSuchObject, kernel.ErrNotFound:
		return ErrNotExist
	case kernel.ErrInvalid:
		return ErrInvalid
	default:
		// Storage-corruption errors arrive wrapped with object detail.
		if errors.Is(err, kernel.ErrCorrupt) {
			return ErrIO
		}
		return err
	}
}
