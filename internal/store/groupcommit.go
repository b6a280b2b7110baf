package store

// Group commit (the concurrent fast path for per-object sync): SyncObject
// seals one write-ahead log record from the object's current state, enqueues
// it with the committer, and waits on a commit ticket.  The first syncer to
// find the committer idle becomes the leader: it drains the queue in bounded
// batches, each batch one wal.AppendBatch plus one Commit (a single
// sequential write and flush), and resolves every ticket in the batch.
// Followers just wait; their latency is bounded by at most one in-flight
// batch ahead of theirs, and batch size is bounded by
// Options.GroupCommitBytes/GroupCommitRecords.
//
// Crash-consistency invariants:
//
//   - A record is sealed and enqueued while holding the object's entry lock,
//     so for one object, log order equals seal order: replay can never
//     regress an object to an earlier sealed state.
//   - SyncObject holds ckptMu in read mode from seal to ticket resolution,
//     so no checkpoint SEAL can intervene between sealing a state and
//     committing it — a record in the log is never older than the epoch
//     marker before it, so replay on the matching snapshot never regresses.
//   - When a batch cannot commit (log full, or a record that could never
//     fit), the sealed records are dropped from the log's pending buffer and
//     every affected syncer falls back to a checkpoint: the checkpoint makes
//     a state at least as new as each sealed record durable, which satisfies
//     the sync contract, and dropping the records keeps a later commit from
//     regressing objects below the checkpoint.  The sealSeq/completedSeal
//     pair lets the fallback syncers share one checkpoint instead of each
//     running their own: a syncer records sealSeq while still under ckptMu
//     read mode, and any checkpoint sealed strictly after that (its body
//     committed, so completedSeal exceeds the recorded value) covered the
//     syncer's state.

import (
	"errors"
	"runtime"
	"sync"

	"histar/internal/wal"
)

// errRetryCheckpoint is the internal signal that a sync must be satisfied by
// a whole-system checkpoint instead of a log record.
var errRetryCheckpoint = errors.New("store: sync falls back to a checkpoint")

// syncTicket is one syncer's claim on a future batch commit.
type syncTicket struct {
	rec  wal.Record
	done chan struct{}
	err  error
}

// committer is the leader/follower group-commit state.  mu is a leaf lock:
// it is taken below entry locks (enqueue) and never while holding it does
// the committer acquire any other store lock.
type committer struct {
	mu         sync.Mutex
	queue      []*syncTicket
	leaderBusy bool
	// held pauses the committer (test hook): syncers enqueue and block until
	// release, which drains the queue on the releasing goroutine.
	held     bool
	maxBytes int64
	maxRecs  int

	// Batch statistics, guarded by mu and counted only for batches whose
	// commit succeeded — the committer is the single source of truth for
	// batching stats (wal.Stats counts at the append layer, which also sees
	// batches whose commit later fails).  hist buckets batch sizes as
	// 1, 2, 3–4, 5–8, 9–16, 17–32, 33–64, 65+.
	batches      uint64
	batchRecords uint64
	maxBatch     int
	hist         [groupHistBuckets]uint64
}

const groupHistBuckets = 8

// histBucket maps a batch size to its histogram bucket.
func histBucket(n int) int {
	b := 0
	for n > 1 && b < groupHistBuckets-1 {
		n = (n + 1) / 2
		b++
	}
	return b
}

// enqueue registers a sealed record for the next batch.  Called with the
// object's entry lock held, so per-object queue order matches seal order.
func (c *committer) enqueue(rec wal.Record) *syncTicket {
	t := &syncTicket{rec: rec, done: make(chan struct{})}
	c.mu.Lock()
	c.queue = append(c.queue, t)
	c.mu.Unlock()
	return t
}

// takeBatch pops the next bounded batch off the queue; the caller holds
// c.mu.  Statistics are recorded by the leader once the batch commits.
func (c *committer) takeBatch() []*syncTicket {
	n, bytes := 0, int64(0)
	for n < len(c.queue) {
		sz := c.queue[n].rec.EncodedSize()
		if n > 0 && (bytes+sz > c.maxBytes || n >= c.maxRecs) {
			break
		}
		bytes += sz
		n++
	}
	batch := append([]*syncTicket(nil), c.queue[:n]...)
	rest := copy(c.queue, c.queue[n:])
	for i := rest; i < len(c.queue); i++ {
		c.queue[i] = nil
	}
	c.queue = c.queue[:rest]
	return batch
}

// recordBatch folds one successfully committed batch into the statistics;
// the caller holds c.mu.
func (c *committer) recordBatch(n int) {
	c.batches++
	c.batchRecords += uint64(n)
	if n > c.maxBatch {
		c.maxBatch = n
	}
	c.hist[histBucket(n)]++
}

// awaitCommit resolves t: the calling syncer becomes the leader if the
// committer is idle, otherwise waits for the active leader (or a test
// release) to commit its batch.
func (s *Store) awaitCommit(t *syncTicket) error {
	c := &s.comm
	c.mu.Lock()
	if !c.held && !c.leaderBusy {
		c.leaderBusy = true
		s.drainLocked()
		c.leaderBusy = false
	}
	c.mu.Unlock()
	<-t.done
	return t.err
}

// drainLocked commits batches until the queue is empty (or a test hold
// pauses the committer).  Called with c.mu held; returns with it held.  The
// queue cannot grow unboundedly under the leader: every enqueuer holds
// ckptMu in read mode and blocks on its ticket, so at most one record per
// live syncer is outstanding.
func (s *Store) drainLocked() {
	c := &s.comm
	for len(c.queue) > 0 && !c.held {
		batch := c.takeBatch()
		c.mu.Unlock()
		err := s.commitBatch(batch)
		for _, bt := range batch {
			bt.err = err
			close(bt.done)
		}
		c.mu.Lock()
		if err == nil {
			c.recordBatch(len(batch))
		}
	}
}

// commitBatch appends and commits one batch: the single sequential write
// plus flush that many syncers share.
func (s *Store) commitBatch(batch []*syncTicket) error {
	recs := make([]wal.Record, len(batch))
	for i, t := range batch {
		recs[i] = t.rec
	}
	if err := s.l.AppendBatch(recs); err != nil {
		if errors.Is(err, wal.ErrTooLarge) {
			// Pre-checked at seal time; only a shrunken log could get here.
			return errRetryCheckpoint
		}
		return err
	}
	err := s.l.Commit()
	if err == nil {
		return nil
	}
	// The batch did not commit (or its durability is unknown).  Drop it from
	// the log's pending buffer: each syncer is told to retry or fail, and a
	// later commit of these records — potentially after a checkpoint made
	// newer states durable — could regress objects.
	s.l.DropPending()
	if errors.Is(err, wal.ErrFull) {
		return errRetryCheckpoint
	}
	return err
}

// SyncObject durably records the current contents of one object — and, in
// the same log record, its canonical serialized label — through the group
// committer: the fast path for fsync of a single file's segment.  Because
// contents and label commit atomically, a crash after SyncObject can never
// resurrect the object with a stale or missing label.  When the record
// cannot go through the log (the log is full, or the record could never
// fit), the same durability is provided by a whole-system checkpoint.
// Directory-level fsync in the Unix library uses Checkpoint directly, which
// is why the paper's synchronous unlink phase is so much slower on HiStar
// than Linux.  SyncObject is SyncObjects of one object.
func (s *Store) SyncObject(id uint64) error {
	return s.SyncObjects([]uint64{id})[0]
}

// SyncObjects durably records the current contents of many objects at once:
// the batched form of SyncObject that the kernel's syscall ring dispatches.
// Every record is sealed under its entry lock and enqueued with the
// committer BEFORE any ticket is awaited, so the leader's takeBatch sees the
// whole group and forms full batches even with no concurrent syncers — N
// syncs cost at most ⌈N/GroupCommitRecords⌉ log flushes instead of N.  The
// returned slice has one error slot per id (nil = durable); ids that cannot
// go through the log share a single checkpoint fallback.
func (s *Store) SyncObjects(ids []uint64) []error {
	errs := make([]error, len(ids))
	if len(ids) == 0 {
		return errs
	}
	seal, needCkpt := s.syncGroupOnce(ids, errs)
	if needCkpt {
		ckErr := s.checkpointSince(seal)
		for i := range errs {
			if errors.Is(errs[i], errRetryCheckpoint) {
				errs[i] = ckErr
			}
		}
	}
	return errs
}

// syncGroupOnce is SyncObjects' log phase: seal and enqueue every record,
// then await all tickets.  It holds ckptMu in read mode from first seal to
// last ticket resolution, so no checkpoint can slip between sealing a state
// and committing it, and it returns the checkpoint seal sequence observed
// under that hold (any later seal captures these records' states).  It
// reports whether any id must fall back to a checkpoint.
func (s *Store) syncGroupOnce(ids []uint64, errs []error) (uint64, bool) {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	seal := s.sealSeq.Load()
	if s.closed {
		for i := range errs {
			errs[i] = ErrClosed
		}
		return seal, false
	}
	type slot struct {
		i int
		t *syncTicket
	}
	slots := make([]slot, 0, len(ids))
	needCkpt := false
	for i, id := range ids {
		s.c.objectSyncs.Add(1)
		e := s.shardOf(id).lookup(id)
		if e == nil {
			// Nothing in memory and not deleted: the on-disk copy is current.
			continue
		}
		e.mu.Lock()
		if e.marked || (!e.cached && !e.dead) {
			s.copyInLocked(id, e)
		}
		var rec wal.Record
		switch {
		case e.dead:
			rec = wal.Record{ObjectID: id, Delete: true}
		case e.cached:
			rec = wal.Record{ObjectID: id, Data: e.data}
			if e.hasLbl {
				rec.Label = e.lbl.AppendBinary(nil)
			}
		case e.quar:
			// Nothing resident and a damaged home extent: not durable.
			e.mu.Unlock()
			errs[i] = &QuarantineError{ID: id, Detail: "cannot sync: home extent failed verification"}
			continue
		default:
			// Not resident and not marked: the on-disk copy is current.
			e.mu.Unlock()
			continue
		}
		if s.l.TooLarge(rec) {
			// Never loggable (log region or label-length field): a
			// checkpoint provides the same durability.
			e.mu.Unlock()
			errs[i] = errRetryCheckpoint
			needCkpt = true
			continue
		}
		// Enqueue under the entry lock: per-object log order = seal order.
		t := s.comm.enqueue(rec)
		e.mu.Unlock()
		slots = append(slots, slot{i, t})
	}
	for _, sl := range slots {
		err := s.awaitCommit(sl.t)
		switch {
		case err == nil:
			s.c.bytesLogged.Add(uint64(len(sl.t.rec.Data)))
			s.c.labelBytesLogged.Add(uint64(len(sl.t.rec.Label)))
		case errors.Is(err, errRetryCheckpoint):
			errs[sl.i] = errRetryCheckpoint
			needCkpt = true
		default:
			errs[sl.i] = err
		}
	}
	return seal, needCkpt
}

// checkpointSince provides a sync's checkpoint fallback: if a checkpoint
// sealed strictly after the record was enqueued has already committed
// (completedSeal moved past the sealSeq value the syncer recorded under
// ckptMu read mode), that checkpoint captured and made durable a state at
// least as new and nothing more is needed; otherwise run one.  The check is
// repeated after acquiring ckptRun, so when a whole failed batch lands here
// at once, the first ticket-holder checkpoints and the rest observe its
// completion and return without running their own.
func (s *Store) checkpointSince(seal uint64) error {
	if s.completedSeal.Load() > seal {
		return nil
	}
	s.ckptRun.Lock()
	defer s.ckptRun.Unlock()
	if s.completedSeal.Load() > seal {
		return nil
	}
	return s.checkpointRunLocked()
}

// holdGroupCommit pauses the committer so a test can pile up concurrent
// syncers deterministically: subsequent syncs enqueue and block on their
// tickets.  It waits out any active leader first.
func (s *Store) holdGroupCommit() {
	c := &s.comm
	for {
		c.mu.Lock()
		if !c.leaderBusy {
			c.held = true
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
		runtime.Gosched()
	}
}

// releaseGroupCommit resumes the committer, draining everything queued while
// it was held on the calling goroutine.
func (s *Store) releaseGroupCommit() {
	c := &s.comm
	c.mu.Lock()
	c.held = false
	if !c.leaderBusy {
		c.leaderBusy = true
		s.drainLocked()
		c.leaderBusy = false
	}
	c.mu.Unlock()
}

// groupQueueLen reports how many sealed records wait for the committer
// (tests poll it while the committer is held).
func (s *Store) groupQueueLen() int {
	c := &s.comm
	c.mu.Lock()
	n := len(c.queue)
	c.mu.Unlock()
	return n
}

// GroupCommitStats describes the committer's batching behaviour.
type GroupCommitStats struct {
	// Batches and Records count committed batches and the records in them;
	// MaxBatch is the largest batch formed.
	Batches  uint64
	Records  uint64
	MaxBatch int
	// Hist buckets batch sizes: 1, 2, 3–4, 5–8, 9–16, 17–32, 33–64, 65+.
	Hist [groupHistBuckets]uint64
}

// GroupCommitStats returns a snapshot of the committer's batch statistics.
func (s *Store) GroupCommitStats() GroupCommitStats {
	c := &s.comm
	c.mu.Lock()
	defer c.mu.Unlock()
	return GroupCommitStats{
		Batches:  c.batches,
		Records:  c.batchRecords,
		MaxBatch: c.maxBatch,
		Hist:     c.hist,
	}
}
