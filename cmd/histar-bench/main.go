// Command histar-bench regenerates the paper's evaluation tables in textual
// form.  It prints, for every row of Figure 12 and Figure 13, the paper's
// measured value and the `go test -bench` target in this repository that
// reproduces it, and runs the quick in-process experiments (syscall counts
// per process-creation primitive, group-sync vs per-file-sync ratio, syscall
// ring batching) whose results are shown inline.  With -json the same
// metrics are emitted as a single JSON object (the per-PR BENCH_*.json
// snapshots and the CI bench-smoke artifact).  Run the full harness with:
//
//	go test -bench=. -benchmem -benchtime=1x .
package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"histar/internal/disk"
	"histar/internal/kernel"
	"histar/internal/label"
	"histar/internal/store"
	"histar/internal/unixlib"
	"histar/internal/vclock"
	"histar/internal/webd"
)

// Report is the machine-readable form of everything histar-bench measures.
type Report struct {
	GoMaxProcs int `json:"gomaxprocs"`

	// E13: syscalls per process-creation primitive (paper: 317 vs 127).
	ForkExecSyscalls uint64 `json:"fork_exec_syscalls"`
	SpawnSyscalls    uint64 `json:"spawn_syscalls"`

	LabelCache LabelCacheReport `json:"label_cache"`
	LabelL1    LabelL1Report    `json:"label_l1"`

	// E4: per-file sync time over group sync time for small-file creates.
	PerFileOverGroupSync float64 `json:"per_file_over_group_sync"`

	GroupCommit GroupCommitReport `json:"group_commit"`
	Ring        RingReport        `json:"ring"`
	TaintScan   TaintScanReport   `json:"taint_scan"`
	Integrity   IntegrityReport   `json:"integrity"`
	Stall       StallReport       `json:"stall_ms"`
	WriteAmp    WriteAmpReport    `json:"write_amplification"`
	SegCleaner  SegCleanerReport  `json:"segment_cleaner"`
	Web         WebReport         `json:"web"`
	Snapshot    SnapshotReport    `json:"snapshot"`
}

// SnapshotReport is the container-snapshot/golden-image section: capture and
// clone rates over a sandbox subtree, the byte-sharing ledger (bytes aliased
// copy-on-write vs bytes actually copied by COW breaks), the cold-spawn vs
// golden-spawn latency distributions the fast-path exists to separate, and
// the webd cold-user blend run both ways.  Wall-clock timing; the ratios
// (spawn_speedup_p50, web_cold_user_speedup) are the claim.
type SnapshotReport struct {
	// SandboxBytes/SandboxObjects describe the golden image: segment data
	// shared by every spawn, and captured object count.
	SandboxBytes   uint64 `json:"sandbox_bytes"`
	SandboxObjects int    `json:"sandbox_objects"`

	SnapshotsPerSec float64 `json:"snapshots_per_sec"`
	ClonesPerSec    float64 `json:"clones_per_sec"`

	// BytesShared counts segment bytes spawns aliased instead of copying;
	// BytesCopied counts bytes privatized by first-write COW breaks.
	BytesShared uint64 `json:"bytes_shared"`
	BytesCopied uint64 `json:"bytes_copied"`
	COWBreaks   uint64 `json:"cow_breaks"`

	ColdSpawnP50Micros   float64 `json:"cold_spawn_p50_micros"`
	ColdSpawnP99Micros   float64 `json:"cold_spawn_p99_micros"`
	GoldenSpawnP50Micros float64 `json:"golden_spawn_p50_micros"`
	GoldenSpawnP99Micros float64 `json:"golden_spawn_p99_micros"`
	// SpawnSpeedupP50 is cold-spawn p50 over golden-spawn p50 for the same
	// sandbox content.
	SpawnSpeedupP50 float64 `json:"spawn_speedup_p50"`

	// WebScratch and WebGolden run the same cold-user-heavy webd blend (more
	// users than the session cache holds, so cold logins never stop) with
	// the sandbox built from scratch vs cloned from a golden image.
	WebScratch         webd.LoadReport `json:"web_scratch"`
	WebGolden          webd.LoadReport `json:"web_golden"`
	WebColdUserSpeedup float64         `json:"web_cold_user_speedup"`
}

// WebReport is the Section 6.4 web-service section: the same many-user
// workload driven three times at equal concurrency.  Baseline pays a fresh
// worker process and full gate login per request.  Mixed runs the realistic
// blend through the session cache — a hot set plus a uniform tail bigger
// than the cache, with periodic logouts, so it pays evictions and cold
// logins continuously.  Warm prewarms the cache with a hot set that fits,
// measuring the steady state the cache exists to create.  Wall-clock
// timing, so absolute RPS varies by machine; the ratios are the claim.
type WebReport struct {
	Baseline webd.LoadReport `json:"baseline"`
	Mixed    webd.LoadReport `json:"mixed"`
	Warm     webd.LoadReport `json:"warm"`
	// MixedSpeedup is mixed RPS over baseline RPS; WarmSpeedup is warm
	// (steady-state session-hit) RPS over baseline RPS.
	MixedSpeedup float64 `json:"mixed_speedup"`
	WarmSpeedup  float64 `json:"warm_speedup"`
}

type LabelCacheReport struct {
	Hits         uint64  `json:"hits"`
	Misses       uint64  `json:"misses"`
	HitRate      float64 `json:"hit_rate"`
	Evictions    uint64  `json:"evictions"`
	ActiveShards int     `json:"active_shards"`
	TotalShards  int     `json:"total_shards"`
}

type LabelL1Report struct {
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`
	Threads int     `json:"threads"`
}

type GroupCommitReport struct {
	Syncs          uint64  `json:"syncs"`
	WALCommits     uint64  `json:"wal_commits"`
	CommitsPerSync float64 `json:"commits_per_sync"`
	MaxBatch       int     `json:"max_batch"`
}

// RingReport is the syscall-ring section: submission depth, lock coalescing,
// and how densely a ring-driven sync fan-out group-commits.
type RingReport struct {
	Waits          uint64  `json:"waits"`
	Entries        uint64  `json:"entries"`
	Depth          float64 `json:"entries_per_wait"`
	Runs           uint64  `json:"lock_runs"`
	Coalesced      uint64  `json:"coalesced_entries"`
	CoalesceRate   float64 `json:"coalesce_rate"`
	SyncGroups     uint64  `json:"sync_groups"`
	SyncEntries    uint64  `json:"sync_entries"`
	BatchRecords   int     `json:"batch_records"`
	WALCommits     uint64  `json:"wal_commits"`
	CommitsPerSync float64 `json:"commits_per_sync"`
}

// IntegrityReport is the on-disk integrity section: how fast a scrub pass
// verifies the image, how long the store takes to notice an injected bit
// flip on first access, and what a recovery mount (corrupt referenced
// metadata area → previous snapshot + full log replay) costs relative to a
// clean one.  All times are simulated disk time on the paper's disk model
// (vclock), so the section is deterministic like every other metric here.
type IntegrityReport struct {
	ScrubBytes          int64   `json:"scrub_bytes"`
	ScrubMBPerSec       float64 `json:"scrub_mb_per_sec"`
	ScrubObjectsChecked int     `json:"scrub_objects_checked"`
	ScrubMicros         float64 `json:"scrub_micros"`

	DetectionLatencyMicros float64 `json:"detection_latency_micros"`

	CleanOpenMicros         float64 `json:"clean_open_micros"`
	FallbackOpenMicros      float64 `json:"fallback_open_micros"`
	FallbackRecordsReplayed int     `json:"fallback_records_replayed"`

	CorruptionsDetected uint64 `json:"corruptions_detected"`
	Quarantined         int    `json:"quarantined"`
}

// StallReport is the checkpoint-stall section: SyncObject latency, in
// milliseconds of host wall clock, measured while a background goroutine
// runs checkpoints back to back.  The stop-the-world design this protocol
// replaced blocked every sync arriving during a checkpoint for the whole
// pass; with the incremental SEAL/BODY/FINISH schedule only the brief
// seal holds the exclusive lock, so the sync tail stays bounded no matter
// how long the body runs.  Wall clock (not the virtual disk clock, which
// is meaningless across racing goroutines) means absolute numbers vary by
// machine; the CI smoke bound is correspondingly generous.
type StallReport struct {
	Syncs          int     `json:"syncs"`
	Checkpoints    uint64  `json:"checkpoints_completed"`
	P50            float64 `json:"sync_p50"`
	P99            float64 `json:"sync_p99"`
	Max            float64 `json:"sync_max"`
	SealStallMax   float64 `json:"seal_stall_max"`
	SealStallTotal float64 `json:"seal_stall_total"`
}

// WriteAmpReport decomposes checkpoint write amplification: bytes of
// object data written to home locations, bytes the segment cleaner copied
// out of half-dead segments, and metadata snapshot bytes, with the ratio
// (home+cleaned+meta)/home.  The log is excluded on both sides — it is
// the durability cost of sync itself, not of checkpointing.
type WriteAmpReport struct {
	BytesHome        uint64  `json:"bytes_home"`
	BytesCleaned     uint64  `json:"bytes_cleaned"`
	MetaBytesWritten uint64  `json:"meta_bytes_written"`
	Ratio            float64 `json:"ratio"`
}

// SegCleanerReport is the segment-cleaner section: how many append-only
// data segments the workload opened, and how many the cleaner copied out
// (live objects relocated, segment freed) or freed outright (no live
// objects left).
type SegCleanerReport struct {
	SegsAllocated uint64 `json:"segs_allocated"`
	SegsCleaned   uint64 `json:"segs_cleaned"`
	SegsFreed     uint64 `json:"segs_freed"`
	BytesCleaned  uint64 `json:"bytes_cleaned"`
}

type TaintScanReport struct {
	TaintedObjects int    `json:"tainted_objects"`
	LabelDecodes   uint64 `json:"label_decodes"`
	IndexEntries   int    `json:"index_entries"`
	LabeledObjects int    `json:"labeled_objects"`
	KernelMatches  int    `json:"kernel_matches"`
}

var evalRows = [][3]string{
	{"Fig 12: IPC round trip", "HiStar 3.11us / Linux 4.32us / OpenBSD 2.13us", "BenchmarkFig12_IPC_*"},
	{"Fig 12: fork/exec", "HiStar 1.35ms / Linux+OpenBSD 0.18ms", "BenchmarkFig12_ForkExec_*"},
	{"Fig 12: spawn", "HiStar 0.47ms", "BenchmarkFig12_Spawn_HiStar"},
	{"Fig 12: LFS small create (async/sync/group)", "0.31s / 459s / 2.57s (HiStar)", "BenchmarkFig12_LFSSmallCreate_*"},
	{"Fig 12: LFS small read (cached/uncached/no-prefetch)", "0.16s / 6.49s / 86.4s (HiStar)", "BenchmarkFig12_LFSSmallRead_*"},
	{"Fig 12: LFS small unlink (async/sync/group)", "0.09s / 456s / 0.38s (HiStar)", "BenchmarkFig12_LFSSmallUnlink_*"},
	{"Fig 12: LFS large seq write / sync rand write / read", "2.14s / 93.0s / 1.96s (HiStar)", "BenchmarkFig12_LFSLarge*"},
	{"Fig 13: building the kernel", "HiStar 6.2s / Linux 4.7s / OpenBSD 6.0s", "BenchmarkFig13_Build_*"},
	{"Fig 13: wget 100MB", "9.1s / 9.0s / 9.0s (link-saturated)", "BenchmarkFig13_Wget100MB_HiStar"},
	{"Fig 13: virus-scan 100MB (plain / with wrap)", "18.7s / 18.7s (HiStar)", "BenchmarkFig13_VirusScan_*"},
	{"Sec 4.1: code size inventory", "15,200 C lines (kernel)", "go run ./cmd/loc"},
}

func main() {
	jsonOut := flag.Bool("json", false, "emit the metrics as one JSON object instead of text")
	flag.Parse()

	var r Report
	r.GoMaxProcs = runtime.GOMAXPROCS(0)
	// The web section runs first: the disk sections below leave gigabytes of
	// simulated platters live on the heap, and GC pacing over that heap
	// throttles the high-RPS cached runs if they go second.
	webRun(&r)
	snapshotRun(&r)
	syscallCounts(&r)
	r.PerFileOverGroupSync = groupVsPerFileSync()
	groupCommitRun(&r)
	ringRun(&r)
	taintedObjectScan(&r)
	integrityRun(&r)
	checkpointStallRun(&r)
	segmentCleanerRun(&r)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&r); err != nil {
			panic(err)
		}
		return
	}
	printReport(&r)
}

// syscallCounts boots a fresh system, measures E13 (syscalls per
// process-creation primitive), and snapshots the label caches that run
// exercised.
func syscallCounts(r *Report) {
	sys, err := unixlib.Boot(unixlib.BootOptions{KernelConfig: kernel.Config{Seed: 2}})
	must(err)
	must(sys.RegisterProgram("/bin/true", func(p *unixlib.Process, args []string) int { return 0 }))
	p, err := sys.NewInitProcess("bench")
	must(err)
	sys.Kern.ResetSyscallCounts()
	child, err := p.Fork()
	must(err)
	must(child.Exec("/bin/true", nil))
	p.Wait(child)
	r.ForkExecSyscalls = sys.Kern.SyscallTotal()
	sys.Kern.ResetSyscallCounts()
	child2, err := p.Spawn("/bin/true", nil)
	must(err)
	p.Wait(child2)
	r.SpawnSyscalls = sys.Kern.SyscallTotal()

	// Label comparison-cache behaviour over the run above (Section 4's
	// immutable-label memoization).
	cs := sys.Kern.LabelCacheStats()
	for _, sh := range cs.Shards {
		if sh.Entries > 0 || sh.Hits+sh.Misses > 0 {
			r.LabelCache.ActiveShards++
		}
	}
	r.LabelCache.TotalShards = len(cs.Shards)
	r.LabelCache.Hits, r.LabelCache.Misses, r.LabelCache.Evictions = cs.Hits, cs.Misses, cs.Evictions
	r.LabelCache.HitRate = rate(cs.Hits, cs.Misses)

	// Per-thread L1 in front of the sharded cache: the hottest canObserve
	// checks are answered from a lock-free per-thread array.
	l1 := sys.Kern.LabelL1Stats()
	r.LabelL1 = LabelL1Report{Hits: l1.Hits, Misses: l1.Misses, HitRate: rate(l1.Hits, l1.Misses), Threads: len(l1.Threads)}
}

func rate(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return 100 * float64(hits) / float64(hits+misses)
}

// ringRun exercises the syscall ring the way the Unix library's hot paths
// do: mixed read-heavy batches for depth/coalescing, then a multi-file
// writev/fsync fan-out whose OpSync entries reach the store as pre-formed
// groups.  A small GroupCommitRecords bound makes the ⌈files/batch⌉ commit
// math visible with few files.
func ringRun(r *Report) {
	const (
		batchRecs = 8
		nFiles    = 32
		batches   = 64
	)
	clk := &vclock.Clock{}
	d := disk.New(disk.Params{Sectors: 1 << 18, WriteCache: true}, clk)
	st, err := store.Format(d, store.Options{LogSize: 8 << 20, GroupCommitRecords: batchRecs})
	must(err)
	sys, err := unixlib.Boot(unixlib.BootOptions{Persist: st, KernelConfig: kernel.Config{Seed: 6}})
	must(err)
	p, err := sys.NewInitProcess("ring")
	must(err)

	// Depth/coalescing: 16-entry mixed batches against two segments.
	tc := p.TC
	root := sys.Kern.RootContainer()
	lbl := label.New(label.L1)
	hot, err := tc.SegmentCreate(root, lbl, "ring-hot", 256)
	must(err)
	own, err := tc.SegmentCreate(root, lbl, "ring-own", 256)
	must(err)
	hotCE := kernel.CEnt{Container: root, Object: hot}
	ownCE := kernel.CEnt{Container: root, Object: own}
	sys.Kern.ResetRingStats()
	ring := tc.NewRing()
	for b := 0; b < batches; b++ {
		for j := 0; j < 16; j++ {
			ce := hotCE
			if j%2 == 1 {
				ce = ownCE
			}
			e := kernel.RingEntry{Op: kernel.OpSegmentRead, Seg: ce, Off: 0, Len: 64}
			if j == 7 {
				e = kernel.RingEntry{Op: kernel.OpSegmentWrite, Seg: ownCE, Off: 0, Data: []byte("ringdata")}
			}
			ring.Submit(e)
		}
		comps, err := ring.Wait(16)
		must(err)
		for i := range comps {
			must(comps[i].Err)
		}
	}

	// Fan-out: one PwritevFsync over nFiles dirty files — one ring batch of
	// writes+read-backs, one SyncObjects group, dense WAL batches.
	fds := make([]int, nFiles)
	ops := make([]unixlib.WriteOp, nFiles)
	for i := range fds {
		fd, err := p.Create(fmt.Sprintf("/tmp/ring%d", i), label.Label{})
		must(err)
		fds[i] = fd
		ops[i] = unixlib.WriteOp{FD: fd, Off: 0, Data: []byte(fmt.Sprintf("ring payload %d", i))}
	}
	commitsBefore := st.WALStats().Commits
	_, err = p.PwritevFsync(ops)
	must(err)

	rs := sys.Kern.RingStats()
	r.Ring = RingReport{
		Waits:        rs.Waits,
		Entries:      rs.Entries,
		Runs:         rs.Runs,
		Coalesced:    rs.Coalesced,
		SyncGroups:   rs.SyncGroups,
		SyncEntries:  rs.SyncEntries,
		BatchRecords: batchRecs,
		WALCommits:   st.WALStats().Commits - commitsBefore,
	}
	if rs.Waits > 0 {
		r.Ring.Depth = float64(rs.Entries) / float64(rs.Waits)
	}
	if rs.Runs+rs.Coalesced > 0 {
		r.Ring.CoalesceRate = 100 * float64(rs.Coalesced) / float64(rs.Runs+rs.Coalesced)
	}
	if rs.SyncEntries > 0 {
		r.Ring.CommitsPerSync = float64(r.Ring.WALCommits) / float64(rs.SyncEntries)
	}
}

func taintedObjectScan(r *Report) {
	clk := &vclock.Clock{}
	params := disk.PaperDisk()
	params.Sectors = (1 << 30) / disk.SectorSize
	params.WriteCache = true
	d := disk.New(params, clk)
	st, err := store.Format(d, store.Options{LogSize: 32 << 20})
	must(err)
	sys, err := unixlib.Boot(unixlib.BootOptions{Persist: st, KernelConfig: kernel.Config{Seed: 4}})
	must(err)
	p, err := sys.NewInitProcess("scan")
	must(err)
	tc := p.TC
	cat, err := tc.CategoryCreateNamed("taint")
	must(err)
	taint := label.New(label.L1, label.P(cat, label.L3))
	plain := label.New(label.L1)
	payload := make([]byte, 512)
	for i := 0; i < 40; i++ {
		lbl := plain
		if i%4 == 0 {
			lbl = taint
		}
		must(p.WriteFile(fmt.Sprintf("/tmp/s%d", i), payload, lbl))
	}
	must(p.FsyncPath("/tmp/s0")) // push at least one labeled record through the log

	decodesBefore := st.Stats().LabelDecodes
	ids := st.ObjectsWithLabel(taint.Fingerprint())
	stStats := st.Stats()
	r.TaintScan.TaintedObjects = len(ids)
	r.TaintScan.LabelDecodes = stStats.LabelDecodes - decodesBefore
	r.TaintScan.IndexEntries = stStats.IndexEntries
	r.TaintScan.LabeledObjects = stStats.LabeledObjects

	root := sys.Kern.RootContainer()
	for i := 0; i < 5; i++ {
		_, err := tc.SegmentCreate(root, taint, fmt.Sprintf("tainted-seg-%d", i), 256)
		must(err)
	}
	kids, err := tc.ContainerFindLabeled(kernel.Self(root), taint.Fingerprint())
	must(err)
	r.TaintScan.KernelMatches = len(kids)
}

// integrityRun measures the end-to-end integrity machinery on a
// FaultDisk-wrapped store: scrub throughput over a clean image, the latency
// from silent bit flip to quarantine on the first uncached access, and the
// cost of a recovery mount (referenced metadata area corrupted → previous
// snapshot loaded, full retained log replayed) against a clean mount of the
// same image.  Times are read off the virtual disk clock (the paper-disk
// latency model), not the host's wall clock, so every run of this section
// produces identical numbers.
func integrityRun(r *Report) {
	const (
		logSize  = 1 << 20
		metaSize = 1 << 20
		nObjects = 256
	)
	clk := &vclock.Clock{}
	params := disk.PaperDisk()
	params.Sectors = (32 << 20) / disk.SectorSize
	params.WriteCache = true
	base := disk.New(params, clk)
	fd := disk.NewFaultDisk(base)
	micros := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	st, err := store.Format(fd, store.Options{LogSize: logSize, MetaAreaSize: metaSize})
	must(err)

	// Generation 0: the victim and its cohort, checkpointed to home extents
	// (with contents CRCs) and never touched again.
	victimPattern := bytes.Repeat([]byte("INTEGRITY-BENCH-VICTIM"), 180)
	lbl := label.New(label.L1)
	for i := uint64(0); i < nObjects; i++ {
		payload := []byte(fmt.Sprintf("integrity object %d ", i))
		payload = append(payload, make([]byte, 4096-len(payload))...)
		must(st.PutLabeled(i, lbl, payload))
		must(st.SyncObject(i))
	}
	const victim = uint64(1000)
	must(st.PutLabeled(victim, lbl, victimPattern))
	must(st.SyncObject(victim))
	must(st.Checkpoint())
	// Generation 1 plus a tail of synced writes in the current log
	// generation, so a metadata fallback has records to replay.
	for i := uint64(0); i < 32; i++ {
		must(st.PutLabeled(i, lbl, []byte(fmt.Sprintf("integrity rewrite %d", i))))
		must(st.SyncObject(i))
	}
	must(st.Checkpoint())
	for i := uint64(nObjects); i < nObjects+16; i++ {
		must(st.PutLabeled(i, lbl, []byte(fmt.Sprintf("integrity tail %d", i))))
		must(st.SyncObject(i))
	}

	// Clean mount of the populated image.
	t0 := clk.Now()
	s2, err := store.Open(fd, store.Options{})
	must(err)
	r.Integrity.CleanOpenMicros = micros(clk.Now() - t0)
	if s2.RecoveryReport().Degraded() {
		panic("integrity bench: clean open reported degraded recovery")
	}

	// Scrub throughput over the intact image, in simulated disk time (the
	// pass is read-bound: both superblock copies, both metadata areas, and
	// every home extent).
	t0 = clk.Now()
	ss, err := s2.Scrub()
	must(err)
	scrubTime := clk.Now() - t0
	r.Integrity.ScrubBytes = ss.BytesVerified
	r.Integrity.ScrubObjectsChecked = ss.ObjectsChecked
	r.Integrity.ScrubMicros = micros(scrubTime)
	if scrubTime > 0 {
		r.Integrity.ScrubMBPerSec = float64(ss.BytesVerified) / (1 << 20) / scrubTime.Seconds()
	}

	// Detection latency: flip one bit in the victim's home extent (located
	// by its unique pattern, searched in the data region only — the log
	// also holds a copy inside the victim's sync record), evict the cache,
	// and time the Get that must notice and quarantine it.
	dataStart := int64(4096) + logSize + 2*metaSize
	raw := make([]byte, fd.Size()-dataStart)
	_, err = fd.ReadAt(raw, dataStart)
	must(err)
	pos := bytes.Index(raw, victimPattern)
	if pos < 0 {
		panic("integrity bench: victim extent not found on disk")
	}
	must(fd.RotBits(disk.Region{Off: dataStart + int64(pos), Len: int64(len(victimPattern))}, 1, 17))
	s2.EvictCache()
	t0 = clk.Now()
	_, err = s2.Get(victim)
	r.Integrity.DetectionLatencyMicros = micros(clk.Now() - t0)
	if !errors.Is(err, store.ErrQuarantined) {
		panic(fmt.Sprintf("integrity bench: corrupted victim read returned %v, want quarantine", err))
	}
	is := s2.IntegrityStats()
	r.Integrity.CorruptionsDetected = is.CorruptionsDetected
	r.Integrity.Quarantined = is.QuarantinedNow

	// Recovery mount: corrupt the referenced metadata area's header (the
	// superblock's `which` field, a little-endian u64 at byte 8, says which
	// of the two areas that is) and time the fallback open — previous
	// snapshot plus a full replay of the retained and current log
	// generations.
	var sbWhich [8]byte
	_, err = fd.ReadAt(sbWhich[:], 8)
	must(err)
	areaOff := int64(4096) + logSize + int64(binary.LittleEndian.Uint64(sbWhich[:]))*metaSize
	must(fd.RotBits(disk.Region{Off: areaOff, Len: 48}, 3, 7))
	t0 = clk.Now()
	s3, err := store.Open(fd, store.Options{})
	must(err)
	r.Integrity.FallbackOpenMicros = micros(clk.Now() - t0)
	rep := s3.RecoveryReport()
	if !rep.MetaFallback {
		panic(fmt.Sprintf("integrity bench: expected metadata fallback, got %+v", rep))
	}
	r.Integrity.FallbackRecordsReplayed = rep.WALRecordsReplayed
}

// checkpointStallRun measures what the incremental checkpoint protocol
// bought: a foreground loop times Put+SyncObject pairs while a background
// goroutine runs checkpoints back to back, so the recorded tail is the
// cost of a sync landing inside a checkpoint body.  This is the one
// histar-bench section that is intentionally NOT deterministic (see the
// StallReport doc).
func checkpointStallRun(r *Report) {
	clk := &vclock.Clock{}
	d := disk.New(disk.Params{Sectors: 1 << 17, WriteCache: true}, clk)
	st, err := store.Format(d, store.Options{
		LogSize:      2 << 20,
		MetaAreaSize: 1 << 20,
		SegmentSize:  64 << 10,
	})
	must(err)

	payload := make([]byte, 3000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	const nObjects = 64
	for i := uint64(0); i < nObjects; i++ {
		must(st.Put(i, payload))
		must(st.SyncObject(i))
	}
	must(st.Checkpoint())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				must(st.Checkpoint())
			}
		}
	}()

	// Keep syncing until at least three checkpoints completed underneath the
	// loop (with a hard cap in case a slow machine starves the background
	// goroutine), so the measured tail genuinely overlaps checkpoint bodies.
	const minSyncs = 400
	ckptBase := st.Stats().Checkpoints
	lat := make([]time.Duration, 0, minSyncs)
	for i := 0; len(lat) < minSyncs || (st.Stats().Checkpoints < ckptBase+3 && i < 64*minSyncs); i++ {
		id := uint64(i % nObjects)
		must(st.Put(id, payload))
		t0 := time.Now()
		must(st.SyncObject(id))
		lat = append(lat, time.Since(t0))
	}
	close(stop)
	wg.Wait()

	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	ms := func(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }
	ss := st.Stats()
	r.Stall = StallReport{
		Syncs:          len(lat),
		Checkpoints:    ss.Checkpoints,
		P50:            ms(int64(lat[len(lat)/2])),
		P99:            ms(int64(lat[len(lat)*99/100])),
		Max:            ms(int64(lat[len(lat)-1])),
		SealStallMax:   ms(ss.SealStallMaxNs),
		SealStallTotal: ms(ss.SealStallTotalNs),
	}
}

// segmentCleanerRun feeds the write-amplification and segment-cleaner
// sections from a single-threaded workload on the virtual disk clock, so
// unlike the stall section these numbers are byte-deterministic: a fixed
// object population is checkpointed into segments, rewritten once, then
// two of every three objects are deleted so the early segments cross the
// cleaner's copy-out threshold (live*2 < used), and two more checkpoints
// let the cleaner both copy out and free.
func segmentCleanerRun(r *Report) {
	clk := &vclock.Clock{}
	d := disk.New(disk.Params{Sectors: 1 << 17, WriteCache: true}, clk)
	st, err := store.Format(d, store.Options{
		LogSize:      2 << 20,
		MetaAreaSize: 1 << 20,
		SegmentSize:  64 << 10,
	})
	must(err)

	payload := make([]byte, 3000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	const nObjects = 64
	for i := uint64(0); i < nObjects; i++ {
		must(st.Put(i, payload))
		must(st.SyncObject(i))
	}
	must(st.Checkpoint())
	for i := uint64(0); i < nObjects; i++ {
		must(st.Put(i, payload))
		must(st.SyncObject(i))
	}
	must(st.Checkpoint())
	for i := uint64(0); i < nObjects; i++ {
		if i%3 != 0 {
			must(st.Delete(i))
		}
	}
	must(st.Checkpoint())
	must(st.Checkpoint())

	ss := st.Stats()
	r.WriteAmp = WriteAmpReport{
		BytesHome:        ss.BytesHome,
		BytesCleaned:     ss.BytesCleaned,
		MetaBytesWritten: ss.MetaBytesWritten,
	}
	if ss.BytesHome > 0 {
		r.WriteAmp.Ratio = float64(ss.BytesHome+ss.BytesCleaned+ss.MetaBytesWritten) / float64(ss.BytesHome)
	}
	r.SegCleaner = SegCleanerReport{
		SegsAllocated: ss.SegsAllocated,
		SegsCleaned:   ss.SegsCleaned,
		SegsFreed:     ss.SegsFreed,
		BytesCleaned:  ss.BytesCleaned,
	}
}

// webRun drives the webd load harness three times at equal concurrency: the
// per-request-login baseline; the mixed run over a larger population than
// the session cache holds (so it continuously pays evictions and cold
// logins on the uniform tail, plus periodic logouts); and the warm run,
// prewarmed with a hot set that fits the cache, measuring the steady state.
// The baseline gets proportionally fewer requests — it is orders of
// magnitude more expensive per request — since RPS normalizes the
// comparison.
func webRun(r *Report) {
	const (
		users       = 256
		concurrency = 8
	)
	baseline, err := webd.RunLoad(webd.LoadConfig{
		Users:       users,
		Requests:    400,
		Concurrency: concurrency,
		Seed:        9,
		Server:      webd.Config{DisableSessionCache: true},
	})
	must(err)
	mixed, err := webd.RunLoad(webd.LoadConfig{
		Users:       users,
		Requests:    4000,
		Concurrency: concurrency,
		LogoutEvery: 500,
		Seed:        9,
		Server:      webd.Config{MaxSessions: 192, Lanes: 4, MaxBatch: 16},
	})
	must(err)
	warm, err := webd.RunLoad(webd.LoadConfig{
		Users:       users,
		Requests:    8000,
		Concurrency: concurrency,
		HotUsers:    96,
		HotFraction: 1.0,
		Prewarm:     true,
		Seed:        9,
		Server:      webd.Config{MaxSessions: 192, Lanes: 4, MaxBatch: 16},
	})
	must(err)
	if baseline.Errors > 0 || mixed.Errors > 0 || warm.Errors > 0 {
		panic(fmt.Sprintf("web bench: request errors (baseline %d, mixed %d, warm %d)",
			baseline.Errors, mixed.Errors, warm.Errors))
	}
	r.Web = WebReport{Baseline: *baseline, Mixed: *mixed, Warm: *warm}
	if baseline.RPS > 0 {
		r.Web.MixedSpeedup = mixed.RPS / baseline.RPS
		r.Web.WarmSpeedup = warm.RPS / baseline.RPS
	}
}

// snapshotRun measures the container snapshot/clone machinery: how fast the
// kernel captures a 64 MiB sandbox subtree and how fast golden-image spawns
// clone it, against the from-scratch sandbox build they replace; then the
// webd cold-user blend (population ≫ session cache, so evictions keep the
// cold-login path hot) with scratch-built vs golden-cloned sandboxes.
func snapshotRun(r *Report) {
	const (
		sandboxBytes = 64 << 20
		nColdSpawns  = 4
		nSnapshots   = 16
		nClones      = 32
	)
	sys, err := unixlib.Boot(unixlib.BootOptions{KernelConfig: kernel.Config{Seed: 11}})
	must(err)
	tc := sys.InitThread()
	root := sys.Kern.RootContainer()

	tmpl, err := sys.AddUser("goldentmpl")
	must(err)
	img, err := sys.BakeGoldenData("bench-sandbox", tmpl, sandboxBytes)
	must(err)
	r.Snapshot.SandboxBytes = img.Bytes
	r.Snapshot.SandboxObjects = img.Objects

	// Capture rate: re-snapshot the baked subtree under distinct names (each
	// a fresh lineage, so nothing is answered from the idempotence check).
	imgCE := kernel.CEnt{Container: root, Object: img.Root}
	t0 := time.Now()
	for i := 0; i < nSnapshots; i++ {
		_, err := tc.ContainerSnapshot(imgCE, fmt.Sprintf("bench-recapture-%d", i))
		must(err)
	}
	if el := time.Since(t0); el > 0 {
		r.Snapshot.SnapshotsPerSec = nSnapshots / el.Seconds()
	}

	// Cold-spawn baseline: build the same sandbox from scratch, creating and
	// writing every byte.
	spawns, err := tc.ContainerCreate(root, label.New(label.L1), "bench spawns", 0, kernel.QuotaInfinite)
	must(err)
	cold := make([]time.Duration, nColdSpawns)
	for i := range cold {
		t0 := time.Now()
		_, err := sys.BuildSandboxScratch(tc, spawns, nil, sandboxBytes)
		must(err)
		cold[i] = time.Since(t0)
	}

	// Golden spawns: one O(metadata) clone per user, categories remapped.
	golden := make([]time.Duration, nClones)
	t0 = time.Now()
	for i := range golden {
		u, err := sys.AddUser(fmt.Sprintf("spawnuser%d", i))
		must(err)
		s0 := time.Now()
		_, err = sys.SpawnFromGolden(tc, img, spawns, u)
		must(err)
		golden[i] = time.Since(s0)
	}
	if el := time.Since(t0); el > 0 {
		r.Snapshot.ClonesPerSec = nClones / el.Seconds()
	}

	coldP50, coldP99 := durPercentiles(cold)
	goldP50, goldP99 := durPercentiles(golden)
	micros := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	r.Snapshot.ColdSpawnP50Micros, r.Snapshot.ColdSpawnP99Micros = micros(coldP50), micros(coldP99)
	r.Snapshot.GoldenSpawnP50Micros, r.Snapshot.GoldenSpawnP99Micros = micros(goldP50), micros(goldP99)
	if goldP50 > 0 {
		r.Snapshot.SpawnSpeedupP50 = float64(coldP50) / float64(goldP50)
	}
	ss := sys.Kern.SnapshotStats()
	r.Snapshot.BytesShared = ss.SharedBytes
	r.Snapshot.BytesCopied = ss.CopiedBytes
	r.Snapshot.COWBreaks = ss.CowBreaks

	// The webd cold-user blend: 48 users over a 12-session cache means the
	// uniform traffic never stops paying cold logins, which is exactly where
	// the sandbox build sits.  Same blend, scratch vs golden.
	blend := func(goldenImage bool) *webd.LoadReport {
		rep, err := webd.RunLoad(webd.LoadConfig{
			Users:        48,
			Requests:     600,
			Concurrency:  8,
			Seed:         11,
			SandboxBytes: 1 << 20,
			GoldenImage:  goldenImage,
			Server:       webd.Config{MaxSessions: 12, Lanes: 4, MaxBatch: 16},
		})
		must(err)
		if rep.Errors > 0 {
			panic(fmt.Sprintf("snapshot bench: %d web request errors (golden=%v)", rep.Errors, goldenImage))
		}
		return rep
	}
	scratch := blend(false)
	goldenRep := blend(true)
	r.Snapshot.WebScratch, r.Snapshot.WebGolden = *scratch, *goldenRep
	if scratch.RPS > 0 {
		r.Snapshot.WebColdUserSpeedup = goldenRep.RPS / scratch.RPS
	}
}

// durPercentiles returns the p50 and p99 of a latency sample (sorted copy).
func durPercentiles(d []time.Duration) (p50, p99 time.Duration) {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s[len(s)/2], s[len(s)*99/100]
}

// groupCommitRun runs a parallel Put+SyncObject workload directly against a
// store and records the write-ahead log commit savings.
func groupCommitRun(r *Report) {
	clk := &vclock.Clock{}
	params := disk.PaperDisk()
	params.Sectors = (1 << 30) / disk.SectorSize
	params.WriteCache = true
	d := disk.New(params, clk)
	st, err := store.Format(d, store.Options{LogSize: 32 << 20})
	must(err)

	const (
		workers     = 8
		syncsPerJob = 200
	)
	var wg sync.WaitGroup
	payload := make([]byte, 1024)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) << 32
			for i := 0; i < syncsPerJob; i++ {
				id := base + uint64(i%64)
				must(st.Put(id, payload))
				must(st.SyncObject(id))
			}
		}(w)
	}
	wg.Wait()

	stats := st.Stats()
	gs := st.GroupCommitStats()
	r.GroupCommit = GroupCommitReport{
		Syncs:          stats.ObjectSyncs,
		WALCommits:     stats.WALCommits,
		CommitsPerSync: float64(stats.WALCommits) / float64(stats.ObjectSyncs),
		MaxBatch:       gs.MaxBatch,
	}
}

func groupVsPerFileSync() float64 {
	run := func(group bool) time.Duration {
		clk := &vclock.Clock{}
		params := disk.PaperDisk()
		params.Sectors = (1 << 30) / disk.SectorSize
		params.WriteCache = true
		d := disk.New(params, clk)
		st, err := store.Format(d, store.Options{LogSize: 32 << 20})
		must(err)
		sys, err := unixlib.Boot(unixlib.BootOptions{Persist: st, KernelConfig: kernel.Config{Seed: 3}})
		must(err)
		p, err := sys.NewInitProcess("bench")
		must(err)
		payload := make([]byte, 1024)
		clk.Reset()
		for i := 0; i < 200; i++ {
			path := fmt.Sprintf("/tmp/f%d", i)
			must(p.WriteFile(path, payload, label.New(label.L1)))
			if !group {
				must(p.FsyncPath(path))
			}
		}
		if group {
			must(p.GroupSync())
		}
		return clk.Now()
	}
	perFile := run(false)
	groupSync := run(true)
	if groupSync == 0 {
		return 0
	}
	return float64(perFile) / float64(groupSync)
}

func printReport(r *Report) {
	fmt.Println("HiStar reproduction — evaluation index (see EXPERIMENTS.md for details)")
	fmt.Println()
	for _, row := range evalRows {
		fmt.Printf("  %-55s paper: %-45s target: %s\n", row[0], row[1], row[2])
	}
	fmt.Println()
	fmt.Printf("E13 syscall counts: fork/exec=%d, spawn=%d (paper: 317 vs 127; Linux 9)\n",
		r.ForkExecSyscalls, r.SpawnSyscalls)
	fmt.Printf("Label cache: %d hits / %d misses (%.1f%% hit rate), %d entries evicted, %d/%d shards active\n",
		r.LabelCache.Hits, r.LabelCache.Misses, r.LabelCache.HitRate,
		r.LabelCache.Evictions, r.LabelCache.ActiveShards, r.LabelCache.TotalShards)
	fmt.Printf("Per-thread L1: %d hits / %d misses (%.1f%% hit rate), %d live threads\n",
		r.LabelL1.Hits, r.LabelL1.Misses, r.LabelL1.HitRate, r.LabelL1.Threads)
	fmt.Printf("E4 durability shapes: per-file sync is %.0fx slower than group sync for small-file creates (paper: up to ~200x)\n",
		r.PerFileOverGroupSync)
	fmt.Printf("Store group commit: %d syncs → %d WAL commits (%.2f commits/sync, max batch %d records, GOMAXPROCS=%d)\n",
		r.GroupCommit.Syncs, r.GroupCommit.WALCommits, r.GroupCommit.CommitsPerSync,
		r.GroupCommit.MaxBatch, r.GoMaxProcs)
	fmt.Printf("Syscall ring: %d entries over %d waits (depth %.1f), %d lock runs + %d coalesced entries (%.1f%% coalesced)\n",
		r.Ring.Entries, r.Ring.Waits, r.Ring.Depth, r.Ring.Runs, r.Ring.Coalesced, r.Ring.CoalesceRate)
	fmt.Printf("  ring sync fan-out: %d syncs in %d groups → %d WAL commits (%.2f commits/sync at %d records/batch)\n",
		r.Ring.SyncEntries, r.Ring.SyncGroups, r.Ring.WALCommits, r.Ring.CommitsPerSync, r.Ring.BatchRecords)
	fmt.Printf("Store label index: %d objects tainted, %d label decodes during the scan (%d index entries over %d labeled objects)\n",
		r.TaintScan.TaintedObjects, r.TaintScan.LabelDecodes, r.TaintScan.IndexEntries, r.TaintScan.LabeledObjects)
	fmt.Printf("Kernel container_find_labeled: %d objects with the taint fingerprint directly in the root container\n",
		r.TaintScan.KernelMatches)
	fmt.Printf("Integrity (simulated disk time): scrub %.1f MB/s (%d bytes, %d objects, %.0fus), bit-flip detected+quarantined in %.1fus on first access\n",
		r.Integrity.ScrubMBPerSec, r.Integrity.ScrubBytes, r.Integrity.ScrubObjectsChecked,
		r.Integrity.ScrubMicros, r.Integrity.DetectionLatencyMicros)
	fmt.Printf("  recovery mount: clean open %.0fus vs fallback open %.0fus (previous snapshot + %d log records replayed); %d corruptions detected, %d quarantined\n",
		r.Integrity.CleanOpenMicros, r.Integrity.FallbackOpenMicros, r.Integrity.FallbackRecordsReplayed,
		r.Integrity.CorruptionsDetected, r.Integrity.Quarantined)
	fmt.Printf("Checkpoint stall (wall clock): %d syncs vs %d concurrent checkpoints — sync p50 %.3fms / p99 %.3fms / max %.3fms; seal stall max %.3fms, total %.3fms\n",
		r.Stall.Syncs, r.Stall.Checkpoints, r.Stall.P50, r.Stall.P99, r.Stall.Max,
		r.Stall.SealStallMax, r.Stall.SealStallTotal)
	fmt.Printf("Write amplification: %.2fx (home %d + cleaned %d + meta %d bytes over home)\n",
		r.WriteAmp.Ratio, r.WriteAmp.BytesHome, r.WriteAmp.BytesCleaned, r.WriteAmp.MetaBytesWritten)
	fmt.Printf("Segment cleaner: %d segments allocated, %d copied out, %d freed (%d bytes relocated)\n",
		r.SegCleaner.SegsAllocated, r.SegCleaner.SegsCleaned, r.SegCleaner.SegsFreed,
		r.SegCleaner.BytesCleaned)
	fmt.Printf("Web service (wall clock, %d users, %d clients): per-request login %.0f req/s (p99 %.0fus) vs session-cached mixed %.0f req/s (p99 %.0fus, %.1fx) vs warm %.0f req/s (p99 %.0fus, %.1fx)\n",
		r.Web.Mixed.Users, r.Web.Mixed.Concurrency,
		r.Web.Baseline.RPS, r.Web.Baseline.P99Micros,
		r.Web.Mixed.RPS, r.Web.Mixed.P99Micros, r.Web.MixedSpeedup,
		r.Web.Warm.RPS, r.Web.Warm.P99Micros, r.Web.WarmSpeedup)
	fmt.Printf("Golden-image spawn (wall clock, %d MiB sandbox, %d objects): scratch build p50 %.0fus vs clone p50 %.0fus (%.0fx); %.0f snapshots/s, %.0f clones/s; %d bytes shared vs %d copied (%d COW breaks)\n",
		r.Snapshot.SandboxBytes>>20, r.Snapshot.SandboxObjects,
		r.Snapshot.ColdSpawnP50Micros, r.Snapshot.GoldenSpawnP50Micros, r.Snapshot.SpawnSpeedupP50,
		r.Snapshot.SnapshotsPerSec, r.Snapshot.ClonesPerSec,
		r.Snapshot.BytesShared, r.Snapshot.BytesCopied, r.Snapshot.COWBreaks)
	fmt.Printf("  webd cold-user blend: scratch sandboxes %.0f req/s vs golden clones %.0f req/s (%.1fx; %d golden spawns, %d scratch spawns)\n",
		r.Snapshot.WebScratch.RPS, r.Snapshot.WebGolden.RPS, r.Snapshot.WebColdUserSpeedup,
		r.Snapshot.WebGolden.GoldenSpawns, r.Snapshot.WebScratch.ScratchSpawns)
	fmt.Printf("  mixed session cache: %.1f%% hit rate (%d hits / %d misses), %d cold logins, %d evictions, %d logouts; %d gate calls over %d ring waits\n",
		100*r.Web.Mixed.HitRate, r.Web.Mixed.Sessions.Hits, r.Web.Mixed.Sessions.Misses,
		r.Web.Mixed.Sessions.ColdLogins, r.Web.Mixed.Sessions.Evictions,
		r.Web.Mixed.Sessions.Logouts, r.Web.Mixed.RingGateCalls, r.Web.Mixed.RingWaits)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
