package unixlib

import (
	"encoding/binary"
	"time"

	"histar/internal/kernel"
	"histar/internal/label"
)

// Per-process file API: the POSIX-ish calls uClibc would make, implemented
// on the fs helpers and the process's descriptor table.

// DefaultFileLabel returns the label new files get for this process: the
// owning user's {ur3, uw0, 1} when running as a user, otherwise {1}, in both
// cases joined with the thread's current taint — a tainted process can only
// create objects at least as tainted as itself.
func (p *Process) DefaultFileLabel() label.Label {
	l := label.New(label.L1)
	if p.User != nil {
		l = l.With(p.User.Ur, label.L3).With(p.User.Uw, label.L0)
	}
	return p.withThreadTaint(l)
}

// withThreadTaint raises l to cover every category in which the calling
// thread is currently tainted at level 2 or 3.
func (p *Process) withThreadTaint(l label.Label) label.Label {
	cur, err := p.TC.SelfLabel()
	if err != nil {
		return l
	}
	for _, c := range cur.Explicit() {
		if lv := cur.Get(c); lv >= label.L2 && l.Get(c) < lv {
			l = l.With(c, lv)
		}
	}
	return l
}

// Create creates a file with the given label and opens it for reading and
// writing.  Pass the zero label to use the process default.
func (p *Process) Create(path string, lbl label.Label) (int, error) {
	if lbl.IsZero() {
		lbl = p.DefaultFileLabel()
	}
	abs := p.abs(path)
	dir, leaf, entry, err := p.sys.resolve(p.TC, p.sys.RootDir, abs, p.mounts)
	if err != nil {
		return -1, err
	}
	if entry != nil {
		return -1, ErrExist
	}
	file, err := p.sys.createFileIn(p.TC, dir, leaf, lbl)
	if err != nil {
		return -1, err
	}
	return p.openEntry(abs, dir, DirEntry{Name: leaf, ID: file, Type: kernel.ObjSegment}, ORead|OWrite)
}

// Open opens an existing file or directory.
func (p *Process) Open(path string, flags uint64) (int, error) {
	abs := p.abs(path)
	dir, _, entry, err := p.sys.resolve(p.TC, p.sys.RootDir, abs, p.mounts)
	if err != nil {
		return -1, err
	}
	if entry == nil {
		return -1, ErrNotExist
	}
	if flags == 0 {
		flags = ORead
	}
	return p.openEntry(abs, dir, *entry, flags)
}

func (p *Process) openEntry(path string, dir kernel.ID, entry DirEntry, flags uint64) (int, error) {
	fdSeg, err := p.newFDSegment(flags)
	if err != nil {
		return -1, err
	}
	fd := &FD{Seg: fdSeg, Path: path}
	if entry.Type == kernel.ObjContainer {
		fd.Dir = entry.ID
	} else {
		fd.File = kernel.CEnt{Container: dir, Object: entry.ID}
	}
	return p.allocFD(fd), nil
}

// Close closes a descriptor.
func (p *Process) Close(num int) error {
	fd, err := p.getFD(num)
	if err != nil {
		return err
	}
	p.fdMu.Lock()
	delete(p.fds, num)
	p.fdMu.Unlock()
	if fd.Pipe != nil {
		return p.closePipeEnd(fd)
	}
	// Drop the descriptor segment; the object disappears when every process
	// holding it open has closed and unreferenced it.
	_ = p.TC.Unref(fd.Seg.Container, fd.Seg.Object)
	return nil
}

// Read reads from the descriptor at its current seek position.  The
// descriptor's shared seek lock makes the read-position update atomic even
// when related processes share the descriptor across fork.
func (p *Process) Read(num int, buf []byte) (int, error) {
	fd, err := p.getFD(num)
	if err != nil {
		return 0, err
	}
	if fd.Pipe != nil {
		return p.pipeRead(fd.Pipe, buf)
	}
	if fd.File.Object == kernel.NilID {
		return 0, ErrIsDir
	}
	fd.seekMu.Lock()
	defer fd.seekMu.Unlock()
	pos, err := p.fdSeek(fd)
	if err != nil {
		return 0, err
	}
	if err := p.sys.pageInFile(fd.File); err != nil {
		return 0, mapKernelErr(err)
	}
	data, err := p.TC.SegmentRead(fd.File, int(pos), len(buf))
	if err != nil {
		return 0, mapKernelErr(err)
	}
	copy(buf, data)
	if err := p.fdSetSeek(fd, pos+int64(len(data))); err != nil {
		return len(data), err
	}
	return len(data), nil
}

// Pread reads at an explicit offset without moving the seek position.
func (p *Process) Pread(num int, buf []byte, off int64) (int, error) {
	fd, err := p.getFD(num)
	if err != nil {
		return 0, err
	}
	if fd.File.Object == kernel.NilID {
		return 0, ErrIsDir
	}
	if err := p.sys.pageInFile(fd.File); err != nil {
		return 0, mapKernelErr(err)
	}
	data, err := p.TC.SegmentRead(fd.File, int(off), len(buf))
	if err != nil {
		return 0, mapKernelErr(err)
	}
	copy(buf, data)
	return len(data), nil
}

// Write writes at the descriptor's current seek position (or the end, with
// OAppend).
func (p *Process) Write(num int, data []byte) (int, error) {
	fd, err := p.getFD(num)
	if err != nil {
		return 0, err
	}
	if fd.Pipe != nil {
		return p.pipeWrite(fd.Pipe, data)
	}
	if fd.File.Object == kernel.NilID {
		return 0, ErrIsDir
	}
	fd.seekMu.Lock()
	defer fd.seekMu.Unlock()
	flags, err := p.fdFlags(fd)
	if err != nil {
		return 0, err
	}
	var pos int64
	if flags&OAppend != 0 {
		n, err := p.TC.SegmentLen(fd.File)
		if err != nil {
			return 0, mapKernelErr(err)
		}
		pos = int64(n)
	} else {
		pos, err = p.fdSeek(fd)
		if err != nil {
			return 0, err
		}
	}
	if err := p.sys.segWrite(p.TC, fd.File, int(pos), data); err != nil {
		return 0, err
	}
	p.touchMtime(fd.File)
	if err := p.sys.markDirty(fd.File.Object); err != nil {
		return 0, err
	}
	if err := p.fdSetSeek(fd, pos+int64(len(data))); err != nil {
		return len(data), err
	}
	return len(data), nil
}

// Pwrite writes at an explicit offset without moving the seek position.
func (p *Process) Pwrite(num int, data []byte, off int64) (int, error) {
	fd, err := p.getFD(num)
	if err != nil {
		return 0, err
	}
	if fd.File.Object == kernel.NilID {
		return 0, ErrIsDir
	}
	if err := p.sys.segWrite(p.TC, fd.File, int(off), data); err != nil {
		return 0, err
	}
	p.touchMtime(fd.File)
	if err := p.sys.markDirty(fd.File.Object); err != nil {
		return 0, err
	}
	return len(data), nil
}

// Whence values for Seek.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// Seek repositions the descriptor.
func (p *Process) Seek(num int, off int64, whence int) (int64, error) {
	fd, err := p.getFD(num)
	if err != nil {
		return 0, err
	}
	if fd.File.Object == kernel.NilID && fd.Pipe != nil {
		return 0, ErrInvalid
	}
	fd.seekMu.Lock()
	defer fd.seekMu.Unlock()
	var base int64
	switch whence {
	case SeekSet:
		base = 0
	case SeekCur:
		base, err = p.fdSeek(fd)
		if err != nil {
			return 0, err
		}
	case SeekEnd:
		n, lerr := p.TC.SegmentLen(fd.File)
		if lerr != nil {
			return 0, mapKernelErr(lerr)
		}
		base = int64(n)
	default:
		return 0, ErrInvalid
	}
	pos := base + off
	if pos < 0 {
		return 0, ErrInvalid
	}
	if err := p.fdSetSeek(fd, pos); err != nil {
		return 0, err
	}
	return pos, nil
}

// FileInfo is the result of Stat.
type FileInfo struct {
	Name  string
	Size  int64
	IsDir bool
	Label label.Label
	Mtime time.Duration
	ID    kernel.ID
}

// Stat returns metadata about a path.
func (p *Process) Stat(path string) (FileInfo, error) {
	abs := p.abs(path)
	dir, leaf, entry, err := p.sys.resolve(p.TC, p.sys.RootDir, abs, p.mounts)
	if err != nil {
		return FileInfo{}, err
	}
	if entry == nil {
		return FileInfo{}, ErrNotExist
	}
	fi := FileInfo{Name: leaf, ID: entry.ID, IsDir: entry.Type == kernel.ObjContainer}
	var ce kernel.CEnt
	if fi.IsDir {
		ce = kernel.Self(entry.ID)
	} else {
		ce = kernel.CEnt{Container: dir, Object: entry.ID}
		n, err := p.TC.SegmentLen(ce)
		if err == nil {
			fi.Size = int64(n)
		}
	}
	st, err := p.TC.ObjectStat(ce)
	if err != nil {
		return fi, mapKernelErr(err)
	}
	fi.Label = st.Label
	fi.Mtime = time.Duration(binary.LittleEndian.Uint64(st.Metadata[8:16]))
	return fi, nil
}

// touchMtime stores a modification timestamp in the object metadata.
func (p *Process) touchMtime(ce kernel.CEnt) {
	st, err := p.TC.ObjectStat(ce)
	if err != nil {
		return
	}
	md := st.Metadata
	binary.LittleEndian.PutUint64(md[8:16], uint64(time.Now().UnixNano()))
	_ = p.TC.ObjectSetMetadata(ce, md)
}

// Mkdir creates a directory with the given label (zero label = process
// default).
func (p *Process) Mkdir(path string, lbl label.Label) error {
	if lbl.IsZero() {
		lbl = p.DefaultFileLabel()
	}
	abs := p.abs(path)
	dir, leaf, entry, err := p.sys.resolve(p.TC, p.sys.RootDir, abs, p.mounts)
	if err != nil {
		return err
	}
	if entry != nil {
		return ErrExist
	}
	_, err = p.sys.mkdirIn(p.TC, dir, leaf, lbl)
	return err
}

// ReadDir lists a directory.
func (p *Process) ReadDir(path string) ([]DirEntry, error) {
	abs := p.abs(path)
	_, _, entry, err := p.sys.resolve(p.TC, p.sys.RootDir, abs, p.mounts)
	if err != nil {
		return nil, err
	}
	if entry == nil {
		return nil, ErrNotExist
	}
	if entry.Type != kernel.ObjContainer {
		return nil, ErrNotDir
	}
	seg, err := p.sys.dirSegCE(p.TC, entry.ID)
	if err != nil {
		return nil, err
	}
	return p.sys.readDirEntries(p.TC, seg)
}

// Unlink removes a file or (empty) directory.
func (p *Process) Unlink(path string) error {
	abs := p.abs(path)
	dir, leaf, entry, err := p.sys.resolve(p.TC, p.sys.RootDir, abs, p.mounts)
	if err != nil {
		return err
	}
	if entry == nil {
		return ErrNotExist
	}
	if entry.Type == kernel.ObjContainer {
		children, err := p.ReadDir(abs)
		if err == nil && len(children) > 0 {
			return ErrNotEmpty
		}
	}
	if _, err := p.sys.removeEntry(p.TC, dir, leaf); err != nil {
		return err
	}
	if err := p.TC.Unref(dir, entry.ID); err != nil {
		return mapKernelErr(err)
	}
	return p.sys.persistDelete(entry.ID)
}

// Rename renames a file within a directory, or moves it between directories.
// The within-directory case is atomic under the directory mutex.
func (p *Process) Rename(oldPath, newPath string) error {
	oldAbs, newAbs := p.abs(oldPath), p.abs(newPath)
	oldDir, oldLeaf, oldEntry, err := p.sys.resolve(p.TC, p.sys.RootDir, oldAbs, p.mounts)
	if err != nil {
		return err
	}
	if oldEntry == nil {
		return ErrNotExist
	}
	newDir, newLeaf, _, err := p.sys.resolve(p.TC, p.sys.RootDir, newAbs, p.mounts)
	if err != nil {
		return err
	}
	if oldDir == newDir {
		return p.sys.renameEntry(p.TC, oldDir, oldLeaf, newLeaf)
	}
	// Cross-directory: link into the new directory, then remove the old
	// name.  The object must have a fixed quota to be multiply linked.
	ce := kernel.CEnt{Container: oldDir, Object: oldEntry.ID}
	_ = p.TC.ObjectSetFixedQuota(ce)
	if err := p.TC.Link(newDir, ce); err != nil && err != kernel.ErrExists {
		return mapKernelErr(err)
	}
	seg, err := p.sys.dirSegCE(p.TC, newDir)
	if err != nil {
		return err
	}
	if err := p.sys.lockDir(p.TC, seg); err != nil {
		return err
	}
	entries, err := p.sys.readDirEntriesLocked(p.TC, seg)
	if err != nil {
		p.sys.unlockDir(p.TC, seg)
		return err
	}
	entries = append(entries, DirEntry{Name: newLeaf, ID: oldEntry.ID, Type: oldEntry.Type})
	if err := p.sys.writeDirEntries(p.TC, seg, entries); err != nil {
		p.sys.unlockDir(p.TC, seg)
		return err
	}
	p.sys.unlockDir(p.TC, seg)
	if _, err := p.sys.removeEntry(p.TC, oldDir, oldLeaf); err != nil {
		return err
	}
	_ = p.TC.Unref(oldDir, oldEntry.ID)
	return nil
}

// ReadFile is a convenience that opens, reads fully, and closes a file.
func (p *Process) ReadFile(path string) ([]byte, error) {
	fd, err := p.Open(path, ORead)
	if err != nil {
		return nil, err
	}
	defer p.Close(fd)
	f, err := p.getFD(fd)
	if err != nil {
		return nil, err
	}
	if err := p.sys.pageInFile(f.File); err != nil {
		return nil, mapKernelErr(err)
	}
	n, err := p.TC.SegmentLen(f.File)
	if err != nil {
		return nil, mapKernelErr(err)
	}
	data, err := p.TC.SegmentRead(f.File, 0, n)
	if err != nil {
		return nil, mapKernelErr(err)
	}
	return data, nil
}

// WriteFile is a convenience that creates (or truncates) a file and writes
// data to it.
func (p *Process) WriteFile(path string, data []byte, lbl label.Label) error {
	fd, err := p.Create(path, lbl)
	if err == ErrExist {
		fd, err = p.Open(path, OWrite)
		if err != nil {
			return err
		}
		f, _ := p.getFD(fd)
		if err := p.sys.segResize(p.TC, f.File, 0); err != nil {
			p.Close(fd)
			return err
		}
	} else if err != nil {
		return err
	}
	defer p.Close(fd)
	_, err = p.Write(fd, data)
	return err
}

// Fsync makes a file durable: the store copies the file's segment and
// synchronously appends it to its write-ahead log, through one ring sync.
func (p *Process) Fsync(num int) error {
	fd, err := p.getFD(num)
	if err != nil {
		return err
	}
	if fd.File.Object == kernel.NilID {
		// fsync of a directory checkpoints the entire system state
		// (Section 7.1's explanation for the synchronous unlink numbers).
		return p.sys.SyncWholeSystem()
	}
	return p.sys.ringSyncFiles(p.TC, []kernel.CEnt{fd.File})
}

// FsyncPath is Fsync by path: files sync their own segment, directories
// checkpoint the whole system.
func (p *Process) FsyncPath(path string) error {
	abs := p.abs(path)
	dir, _, entry, err := p.sys.resolve(p.TC, p.sys.RootDir, abs, p.mounts)
	if err != nil {
		return err
	}
	if entry == nil {
		return ErrNotExist
	}
	if entry.Type == kernel.ObjContainer {
		return p.sys.SyncWholeSystem()
	}
	return p.sys.ringSyncFiles(p.TC, []kernel.CEnt{{Container: dir, Object: entry.ID}})
}

// GroupSync checkpoints the entire system state once — the new consistency
// choice the single-level store makes possible (Section 7.1): the
// application either runs to completion or appears never to have started.
func (p *Process) GroupSync() error {
	return p.sys.SyncWholeSystem()
}
