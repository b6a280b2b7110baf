// Package histar is a reproduction of "Making Information Flow Explicit in
// HiStar" (Zeldovich, Boyd-Wickizer, Kohler, Mazières; OSDI 2006) as a Go
// library: the kernel object model and label algebra, the single-level
// store, the user-level Unix library, and the paper's applications (the
// wrapped virus scanner, untrusted login, VPN isolation, and per-user web
// services), together with a benchmark harness that regenerates the shape of
// the paper's Figure 12 and Figure 13 on simulated hardware.
//
// The label algebra (internal/label) keeps every label in an immutable
// canonical form — a slice of category/level pairs sorted by category, with
// the 64-bit fingerprint computed once at construction — so ⊑ is an
// allocation-free linear merge and ⊔/⊓ allocate only their output.  Every
// access check runs on that one merge, reading ⋆ as J where a check compares
// against a superscript-J form, so the kernel checks labels directly and
// keeps no comparison cache.  The single-level store persists labels in the
// same canonical serialized form.
//
// The single-level store (internal/store) takes a file's bytes from the
// kernel's segment only when it needs them: a write just marks the file,
// and the store copies the segment in at an fsync (one ring OpSync) and
// before a checkpoint's seal.  It makes labels first-class durable state:
// every SyncObject log record carries the object's contents and canonical
// label in one atomic commit (see the internal/wal package comment for the
// versioned record format), checkpoints are copy-on-write so a torn write
// can never corrupt the referenced snapshot, and a fingerprint-keyed
// B+-tree index answers "every object tainted by category c" scans —
// Store.ObjectsWithLabel, surfaced in the kernel as
// container_find_labeled — without deserializing a single label.  The store
// runs concurrently under the same discipline as the kernel: the object
// cache, label map, and fingerprint index are sharded by object-ID bits,
// each cached object carries its own entry lock and dirty state, the
// allocator and metadata trees sit behind narrow locks of their own, and a
// store-wide RWMutex serves only as the stop-the-world checkpoint gate.
// Concurrent SyncObject calls flow through a leader/follower group
// committer — sealed records batch into one wal.AppendBatch plus a single
// Commit and flush, with every syncer waiting on a commit ticket — so
// many fsyncs share one log write (see the internal/store package comment
// for the locking discipline and the group-commit protocol's
// crash-consistency invariants).  A crash-injection harness (disk.FaultDisk
// plus the recovery tests in internal/store) replays every write-boundary
// crash point of randomized workloads — serial and concurrent, including
// mid-batch and partial-destage crashes — against a reference model to keep
// those guarantees checkable.
//
// The kernel (internal/kernel) runs system calls with no global lock: the
// object table is sharded by object-ID bits with a per-shard RWMutex, every
// object carries its own RW lock, and multi-object syscalls acquire object
// locks in ascending object-ID order (see the internal/kernel package
// comment for the full discipline).  Read-mostly syscalls take only read
// locks, and label checks take no lock at all.  Syscall statistics are
// striped atomic counters indexed by a fixed syscall enum, merged on read.
//
// Batched submission rides on top of that discipline: a per-thread syscall
// ring (kernel.Ring, an io_uring-style interface) queues segment and stat
// operations plus OpSync durability requests, then executes the whole batch
// under one thread snapshot per Wait.  Completions return in submission
// order with per-entry errors; a Chain flag makes an entry depend on its
// predecessor, with failure skipping the rest of the chain (ErrSkipped).
// Execution reorders independent chains by target object so same-object
// entries share a single resolve, lockOrdered acquisition, and liveness
// check — the sort is stable, so same-object submission order is preserved
// and a write-then-read needs no Chain flag — while still locking
// {container, object} in ascending-ID order, adding no new lock-order edges.
// All OpSync entries in a batch reach the store as one pre-formed
// SyncObjects group, which the group committer turns into dense log batches:
// ⌈N/GroupCommitRecords⌉ flushes for N syncs instead of N.  The Unix
// library's readdir scan and its multi-file writev/fsync fan-out
// (Process.PwritevFsync, Process.FsyncMany) are built on the ring.
//
// Container snapshots make sandbox creation O(metadata): the kernel
// captures a container subtree as an immutable snapshot (segment buffers
// frozen for copy-on-write) under a deterministic lineage ID, and
// ContainerClone — also available ring-natively as OpSnapshot/OpClone —
// materializes it with fresh object IDs, intra-subtree references
// rewritten, and per-user categories remapped in every label, sharing all
// segment data COW until first write.  With a persistent store attached,
// snapshots are mirrored as refcounted store bundles: captured extents are
// pinned against the segment cleaner and the deferred-free path, bundles
// survive crashes via a WAL record and live in the metadata snapshot
// (format v4) from the next checkpoint, and a rotted shared extent
// quarantines every clone with a typed error rather than propagating
// silently.  unixlib.BakeGolden/SpawnFromGolden package the pattern as
// golden-image spawning, and webd's session cache uses it to clone each
// cold-login user's sandbox from a 64 MiB golden image in microseconds
// instead of rebuilding it (examples/goldenspawn; the acceptance floors —
// clone ≥50x faster than a scratch build, bytes copied ≤1% of bytes
// shared — are asserted in CI and recorded in BENCH_10.json).
//
// The user-level Unix library (internal/unixlib) carries no big locks
// either: program and user tables are read-mostly RWMutexes, PIDs are
// atomic, directory-segment bindings come from a sharded cache, mount
// tables are self-synchronizing, and each file descriptor owns a seek lock
// shared across the processes that share the descriptor segment — so
// multi-process workloads actually exploit the concurrent kernel and store
// beneath them.
//
// The root package holds only the benchmark harness (bench_test.go); the
// implementation lives under internal/ and the runnable entry points under
// cmd/ and examples/.
package histar
