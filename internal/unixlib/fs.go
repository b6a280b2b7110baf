package unixlib

import (
	"encoding/binary"
	"errors"
	"strings"
	"sync"

	"histar/internal/kernel"
	"histar/internal/label"
)

// The HiStar file system (Section 5.1): files are segments, directories are
// containers with a directory segment, and permissions are plain kernel
// labels enforced by the kernel rather than by this (untrusted) library.
// Directories are given an unlimited quota and the library manages file
// segment quotas automatically via quota_move, matching the paper's "we do
// not expect users to manage quotas manually" stance.

// dirQuota is the quota assigned to directory containers.
const dirQuota = kernel.QuotaInfinite

// mkDirContainer creates a directory: a container plus its directory
// segment, with the segment's ID recorded in the container metadata.
func (sys *System) mkDirContainer(tc *kernel.ThreadCall, parent kernel.ID, name string, lbl label.Label) (kernel.ID, error) {
	dir, err := tc.ContainerCreate(parent, lbl, "dir:"+name, 0, dirQuota)
	if err != nil {
		return kernel.NilID, mapKernelErr(err)
	}
	seg, err := tc.SegmentCreate(dir, lbl, "dirseg:"+name, dsDataOff)
	if err != nil {
		return kernel.NilID, mapKernelErr(err)
	}
	if err := sys.persistLabel(seg, lbl); err != nil {
		return kernel.NilID, err
	}
	var md [kernel.MetadataSize]byte
	binary.LittleEndian.PutUint64(md[:8], uint64(seg))
	if err := tc.ObjectSetMetadata(kernel.Self(dir), md); err != nil {
		return kernel.NilID, mapKernelErr(err)
	}
	return dir, nil
}

// mkdirIn creates a named subdirectory inside dir and records it in dir's
// directory segment.
func (sys *System) mkdirIn(tc *kernel.ThreadCall, dir kernel.ID, name string, lbl label.Label) (kernel.ID, error) {
	seg, err := sys.dirSegCE(tc, dir)
	if err != nil {
		return kernel.NilID, err
	}
	if err := sys.lockDir(tc, seg); err != nil {
		return kernel.NilID, err
	}
	defer sys.unlockDir(tc, seg)
	entries, err := sys.readDirEntriesLocked(tc, seg)
	if err != nil {
		return kernel.NilID, err
	}
	for _, e := range entries {
		if e.Name == name {
			return kernel.NilID, ErrExist
		}
	}
	child, err := sys.mkDirContainer(tc, dir, name, lbl)
	if err != nil {
		return kernel.NilID, err
	}
	entries = append(entries, DirEntry{Name: name, ID: child, Type: kernel.ObjContainer})
	if err := sys.writeDirEntries(tc, seg, entries); err != nil {
		return kernel.NilID, err
	}
	return child, nil
}

// createFileIn creates a file segment named name inside dir with the given
// label.
func (sys *System) createFileIn(tc *kernel.ThreadCall, dir kernel.ID, name string, lbl label.Label) (kernel.ID, error) {
	seg, err := sys.dirSegCE(tc, dir)
	if err != nil {
		return kernel.NilID, err
	}
	if err := sys.lockDir(tc, seg); err != nil {
		return kernel.NilID, err
	}
	defer sys.unlockDir(tc, seg)
	entries, err := sys.readDirEntriesLocked(tc, seg)
	if err != nil {
		return kernel.NilID, err
	}
	for _, e := range entries {
		if e.Name == name {
			return kernel.NilID, ErrExist
		}
	}
	file, err := tc.SegmentCreate(dir, lbl, "file:"+truncName(name), 0)
	if err != nil {
		return kernel.NilID, mapKernelErr(err)
	}
	if err := sys.persistLabel(file, lbl); err != nil {
		return kernel.NilID, err
	}
	entries = append(entries, DirEntry{Name: name, ID: file, Type: kernel.ObjSegment})
	if err := sys.writeDirEntries(tc, seg, entries); err != nil {
		return kernel.NilID, err
	}
	return file, nil
}

func truncName(s string) string {
	if len(s) > 20 {
		return s[:20]
	}
	return s
}

// lookupEntry finds a name in a directory.
func (sys *System) lookupEntry(tc *kernel.ThreadCall, dir kernel.ID, name string) (DirEntry, error) {
	seg, err := sys.dirSegCE(tc, dir)
	if err != nil {
		return DirEntry{}, err
	}
	entries, err := sys.readDirEntries(tc, seg)
	if err != nil {
		return DirEntry{}, err
	}
	for _, e := range entries {
		if e.Name == name {
			return e, nil
		}
	}
	return DirEntry{}, ErrNotExist
}

// removeEntry removes a name binding from a directory (the object itself is
// unreferenced by the caller).
func (sys *System) removeEntry(tc *kernel.ThreadCall, dir kernel.ID, name string) (DirEntry, error) {
	seg, err := sys.dirSegCE(tc, dir)
	if err != nil {
		return DirEntry{}, err
	}
	if err := sys.lockDir(tc, seg); err != nil {
		return DirEntry{}, err
	}
	defer sys.unlockDir(tc, seg)
	entries, err := sys.readDirEntriesLocked(tc, seg)
	if err != nil {
		return DirEntry{}, err
	}
	for i, e := range entries {
		if e.Name == name {
			entries = append(entries[:i], entries[i+1:]...)
			if err := sys.writeDirEntries(tc, seg, entries); err != nil {
				return DirEntry{}, err
			}
			return e, nil
		}
	}
	return DirEntry{}, ErrNotExist
}

// renameEntry atomically renames oldName to newName within a single
// directory by holding the directory mutex across the update (Section 5.1's
// atomic rename example).
func (sys *System) renameEntry(tc *kernel.ThreadCall, dir kernel.ID, oldName, newName string) error {
	seg, err := sys.dirSegCE(tc, dir)
	if err != nil {
		return err
	}
	if err := sys.lockDir(tc, seg); err != nil {
		return err
	}
	defer sys.unlockDir(tc, seg)
	entries, err := sys.readDirEntriesLocked(tc, seg)
	if err != nil {
		return err
	}
	var src *DirEntry
	dstIdx := -1
	for i := range entries {
		if entries[i].Name == oldName {
			src = &entries[i]
		}
		if entries[i].Name == newName {
			dstIdx = i
		}
	}
	if src == nil {
		return ErrNotExist
	}
	src.Name = newName
	if dstIdx >= 0 {
		// Replace the existing target (Unix rename semantics).
		victim := entries[dstIdx]
		entries = append(entries[:dstIdx], entries[dstIdx+1:]...)
		_ = tc.Unref(dir, victim.ID)
		if err := sys.persistDelete(victim.ID); err != nil {
			return err
		}
	}
	return sys.writeDirEntries(tc, seg, entries)
}

// resolve walks an absolute or cwd-relative path to its final component.  It
// returns the containing directory, the final component's name, and — if the
// path names an existing entry — that entry.  The mounts table, when
// non-nil, overlays mounted containers on path prefixes (Section 5.1's
// per-process mount table, in the style of Plan 9).
func (sys *System) resolve(tc *kernel.ThreadCall, rootDir kernel.ID, path string, mounts *MountTable) (dir kernel.ID, leaf string, entry *DirEntry, err error) {
	clean := cleanPath(path)
	if clean == "/" {
		return rootDir, ".", &DirEntry{Name: ".", ID: rootDir, Type: kernel.ObjContainer}, nil
	}
	// Longest-prefix mount match.
	cur := rootDir
	rest := clean
	if mounts != nil {
		if target, remainder, ok := mounts.match(clean); ok {
			cur = target
			rest = remainder
			if rest == "" || rest == "/" {
				return cur, ".", &DirEntry{Name: ".", ID: cur, Type: kernel.ObjContainer}, nil
			}
		}
	}
	parts := strings.Split(strings.Trim(rest, "/"), "/")
	for i, part := range parts {
		if part == "" || part == "." {
			continue
		}
		last := i == len(parts)-1
		e, lerr := sys.lookupEntry(tc, cur, part)
		if last {
			if lerr != nil {
				if errors.Is(lerr, ErrNotExist) {
					return cur, part, nil, nil
				}
				return kernel.NilID, "", nil, lerr
			}
			ecopy := e
			return cur, part, &ecopy, nil
		}
		if lerr != nil {
			return kernel.NilID, "", nil, lerr
		}
		if e.Type != kernel.ObjContainer {
			return kernel.NilID, "", nil, ErrNotDir
		}
		cur = e.ID
	}
	return cur, ".", &DirEntry{Name: ".", ID: cur, Type: kernel.ObjContainer}, nil
}

func cleanPath(p string) string {
	if p == "" {
		return "/"
	}
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	// Collapse duplicate slashes; no ".." support (the library resolves
	// parents through container_get_parent where needed).
	var parts []string
	for _, part := range strings.Split(p, "/") {
		if part == "" || part == "." {
			continue
		}
		if part == ".." {
			if len(parts) > 0 {
				parts = parts[:len(parts)-1]
			}
			continue
		}
		parts = append(parts, part)
	}
	return "/" + strings.Join(parts, "/")
}

// MountTable maps path prefixes onto containers, like Plan 9 namespaces: a
// process may copy and modify its table, for example at user login or to
// select which network stack /netd refers to (Section 6.3).  Tables are safe
// for concurrent use: path resolution takes the read lock, so concurrent
// lookups through a shared table never serialize on each other.
type MountTable struct {
	mu      sync.RWMutex
	entries map[string]kernel.ID
}

// NewMountTable returns an empty mount table.
func NewMountTable() *MountTable {
	return &MountTable{entries: make(map[string]kernel.ID)}
}

// Clone returns a copy of the table (used across fork).
func (m *MountTable) Clone() *MountTable {
	n := NewMountTable()
	m.mu.RLock()
	defer m.mu.RUnlock()
	for k, v := range m.entries {
		n.entries[k] = v
	}
	return n
}

// Mount overlays container id on path prefix.
func (m *MountTable) Mount(prefix string, id kernel.ID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries[cleanPath(prefix)] = id
}

// Unmount removes an overlay.
func (m *MountTable) Unmount(prefix string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.entries, cleanPath(prefix))
}

// Lookup returns the container mounted exactly at prefix.
func (m *MountTable) Lookup(prefix string) (kernel.ID, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	id, ok := m.entries[cleanPath(prefix)]
	return id, ok
}

// match finds the longest mount prefix of path and returns the mounted
// container and the remaining path.
func (m *MountTable) match(path string) (kernel.ID, string, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	best := ""
	var bestID kernel.ID
	for prefix, id := range m.entries {
		if path == prefix || strings.HasPrefix(path, prefix+"/") {
			if len(prefix) > len(best) {
				best = prefix
				bestID = id
			}
		}
	}
	if best == "" {
		return kernel.NilID, "", false
	}
	return bestID, strings.TrimPrefix(path, best), true
}

// segWrite writes data to a segment, growing its quota through quota_move
// when necessary (the library's automatic quota management).
func (sys *System) segWrite(tc *kernel.ThreadCall, seg kernel.CEnt, off int, data []byte) error {
	err := tc.SegmentWrite(seg, off, data)
	if errors.Is(err, kernel.ErrQuota) {
		need := int64(off+len(data))*2 + 64*1024
		if qerr := tc.QuotaMove(seg.Container, seg.Object, need); qerr != nil {
			return mapKernelErr(qerr)
		}
		err = tc.SegmentWrite(seg, off, data)
	}
	return mapKernelErr(err)
}

// segResize resizes a segment, growing its quota when necessary.
func (sys *System) segResize(tc *kernel.ThreadCall, seg kernel.CEnt, n int) error {
	err := tc.SegmentResize(seg, n)
	if errors.Is(err, kernel.ErrQuota) {
		need := int64(n)*2 + 64*1024
		if qerr := tc.QuotaMove(seg.Container, seg.Object, need); qerr != nil {
			return mapKernelErr(qerr)
		}
		err = tc.SegmentResize(seg, n)
	}
	return mapKernelErr(err)
}
