package unixlib

import (
	"errors"

	"histar/internal/kernel"
)

// Ring-driven multi-FD I/O: the second unixlib hot path converted to the
// kernel's batched submission interface.  A server flushing many dirty files
// used to pay, per file, a write syscall and — the expensive part — one
// write-ahead-log flush for the fsync.  Here all files' writes go through
// one ring batch (same-file writes coalesce to one lock round-trip) and all
// fsyncs are dispatched to the store as a single SyncObjects group, which
// copies each file's segment once and has the group committer turn the
// records into dense log batches: one flush per GroupCommitRecords-sized
// batch instead of one per file.

// WriteOp is one positional write of a writev/fsync fan-out.
type WriteOp struct {
	FD   int
	Off  int64
	Data []byte
}

// PwritevFsync applies every write, marks each touched file, and makes
// them all durable with one group sync.  It returns the total bytes written.
// Writes to the same file apply in op order (the ring keeps same-object
// submission order); the first error is returned after all ops have been
// attempted, matching the per-call loop it replaces.
func (p *Process) PwritevFsync(ops []WriteOp) (int, error) {
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// One ring batch of every write whose descriptor resolves; files
	// collects the distinct targets in first-appearance order.
	type write struct {
		op   WriteOp
		file kernel.CEnt
	}
	writes := make([]write, 0, len(ops)) // in completion order
	var files []kernel.CEnt
	seen := make(map[kernel.ID]bool, len(ops))
	r := p.TC.NewRing()
	for _, op := range ops {
		fd, err := p.getFD(op.FD)
		if err == nil && fd.File.Object == kernel.NilID {
			err = ErrIsDir
		}
		if err != nil {
			keep(err)
			continue
		}
		r.Submit(kernel.RingEntry{Op: kernel.OpSegmentWrite, Seg: fd.File, Off: int(op.Off), Data: op.Data})
		writes = append(writes, write{op, fd.File})
		if !seen[fd.File.Object] {
			seen[fd.File.Object] = true
			files = append(files, fd.File)
		}
	}
	comps, err := r.Wait(len(writes))
	if err != nil {
		return 0, mapKernelErr(err)
	}

	// Settle the writes.  A quota failure falls back to the library's
	// quota_move retry path, so ring submission keeps Pwrite's semantics for
	// files that outgrow their slack.
	total := 0
	for i, w := range writes {
		werr := mapKernelErr(comps[i].Err)
		if errors.Is(werr, kernel.ErrQuota) {
			werr = p.sys.segWrite(p.TC, w.file, int(w.op.Off), w.op.Data)
		}
		if werr == nil {
			total += len(w.op.Data)
		}
		keep(werr)
	}
	for _, f := range files {
		p.touchMtime(f)
		keep(p.sys.markDirty(f.Object))
	}
	// One sync batch: the ring hands every file to the store as a single
	// pre-formed group — at most ⌈files/GroupCommitRecords⌉ log flushes.
	keep(p.sys.ringSyncFiles(p.TC, files))
	return total, firstErr
}

// FsyncMany is fsync over many descriptors at once: every file is committed
// as one group sync.  fsync of a directory keeps its Checkpoint semantics.
func (p *Process) FsyncMany(nums []int) error {
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	var files []kernel.CEnt
	seen := make(map[kernel.ID]bool, len(nums))
	checkpoint := false
	for _, num := range nums {
		fd, err := p.getFD(num)
		switch {
		case err != nil:
			keep(err)
		case fd.File.Object == kernel.NilID:
			checkpoint = true
		case !seen[fd.File.Object]:
			seen[fd.File.Object] = true
			files = append(files, fd.File)
		}
	}
	keep(p.sys.ringSyncFiles(p.TC, files))
	if checkpoint {
		// A directory among the descriptors checkpoints the whole system,
		// after the per-file syncs so it also covers them.
		keep(p.sys.SyncWholeSystem())
	}
	return firstErr
}

// ringSyncFiles makes the files durable through one ring sync batch: a
// single SyncObjects group, in which the store copies each file's current
// segment and its committer logs them.  Every file fsync goes through here.
func (sys *System) ringSyncFiles(tc *kernel.ThreadCall, files []kernel.CEnt) error {
	if sys.Persist == nil || len(files) == 0 {
		return nil
	}
	r := tc.NewRing()
	r.SetSyncer(sys.Persist)
	for _, f := range files {
		r.Submit(kernel.RingEntry{Op: kernel.OpSync, Seg: f})
	}
	comps, err := r.Wait(len(files))
	if err != nil {
		return mapKernelErr(err)
	}
	for i := range comps {
		if comps[i].Err != nil {
			return mapKernelErr(comps[i].Err)
		}
	}
	return nil
}
