package main

import (
	"math"
	"runtime/metrics"
	"slices"
	"strings"
	"syscall"
	"time"

	"histar/internal/label"
	"histar/internal/webd"
)

// counters is a flat snapshot of every cumulative counter the report uses,
// read from the layers' public Stats accessors.  Rounds take one before and
// one after their measured phase and keep the difference.  Keys starting
// with "max." are high-water marks: they are kept, not differenced, and
// combine by maximum.
type counters map[string]float64

func isMax(k string) bool { return strings.HasPrefix(k, "max.") }

func (c counters) sub(base counters) counters {
	out := make(counters, len(c))
	for k, v := range c {
		if isMax(k) {
			out[k] = v
		} else {
			out[k] = v - base[k]
		}
	}
	return out
}

func (c counters) add(d counters) {
	for k, v := range d {
		if isMax(k) {
			c[k] = max(c[k], v)
		} else {
			c[k] += v
		}
	}
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// processCPU is the process's user+sys CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// snapshot reads the counters of every layer the rig has.  srv may be nil.
func (r *rig) snapshot(srv *webd.Server) counters {
	c := counters{}
	k := r.sys.Kern

	ds := r.disk.Stats()
	c["disk.reads"] = float64(ds.Reads)
	c["disk.writes"] = float64(ds.Writes)
	c["disk.flushes"] = float64(ds.Flushes)
	c["disk.seeks"] = float64(ds.Seeks)
	c["disk.bytes_read"] = float64(ds.BytesRead)
	c["disk.bytes_written"] = float64(ds.BytesWritten)
	c["disk.prefetch_hits"] = float64(ds.PrefetchHits)
	c["disk.sim_ns"] = float64(r.clk.Now())
	c["disk.host_ns"] = float64(r.dev.hostNs.Load())

	ss := r.st.Stats()
	c["store.puts"] = float64(ss.Puts)
	c["store.gets"] = float64(ss.Gets)
	c["store.object_syncs"] = float64(ss.ObjectSyncs)
	c["store.checkpoints"] = float64(ss.Checkpoints)
	c["store.bytes_logged"] = float64(ss.BytesLogged)
	c["store.bytes_home"] = float64(ss.BytesHome)
	c["store.bytes_cleaned"] = float64(ss.BytesCleaned)
	c["store.wal_commits"] = float64(ss.WALCommits)
	ws := r.st.WALStats()
	c["wal.commits"] = float64(ws.Commits)
	c["wal.appended"] = float64(ws.Appended)
	c["wal.batch_bytes"] = float64(ws.BatchBytes)
	c["max.wal_batch"] = float64(ws.MaxBatch)

	c["max.live_objects"] = float64(k.ObjectCount())
	c["kernel.syscalls"] = float64(k.SyscallTotal())
	sc := k.SyscallCounts()
	for _, name := range []string{"segment_write", "segment_read", "category_create"} {
		c["kernel.sys."+name] = float64(sc[name])
	}
	rs := k.RingStats()
	c["kernel.ring_entries"] = float64(rs.Entries)
	c["kernel.ring_waits"] = float64(rs.Waits)
	c["kernel.ring_runs"] = float64(rs.Runs)
	c["kernel.ring_coalesced"] = float64(rs.Coalesced)
	c["kernel.ring_gate_calls"] = float64(rs.GateCalls)
	sn := k.SnapshotStats()
	c["kernel.snapshot_shared_bytes"] = float64(sn.SharedBytes)
	c["kernel.snapshot_copied_bytes"] = float64(sn.CopiedBytes)
	c["kernel.cow_breaks"] = float64(sn.CowBreaks)

	lc := k.LabelCacheStats()
	c["label.cache_hits"] = float64(lc.Hits)
	c["label.cache_misses"] = float64(lc.Misses)
	l1 := k.LabelL1Stats()
	c["label.l1_hits"] = float64(l1.Hits)
	c["label.l1_misses"] = float64(l1.Misses)
	c["label.categories"] = float64(k.CategoryAllocator().Allocated())
	c["max.intern_count"] = float64(label.InternStatsSnapshot().Count)

	if srv != nil {
		st := srv.SessionStats()
		c["webd.hits"] = float64(st.Hits)
		c["webd.misses"] = float64(st.Misses)
		c["webd.cold_logins"] = float64(st.ColdLogins)
		c["webd.evictions"] = float64(st.Evictions)
	}

	rt := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(rt)
	c["runtime.gc_cpu_s"] = rt[0].Value.Float64()
	c["runtime.cpu_s"] = rt[1].Value.Float64()
	c["runtime.alloc_bytes"] = float64(rt[2].Value.Uint64())
	return c
}

// percentile returns the p-quantile (nearest rank) of sorted durations in
// microseconds.
func percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	i = min(max(i, 0), len(sorted)-1)
	return float64(sorted[i]) / float64(time.Microsecond)
}

func median[T ~int64 | ~float64](v []T) T {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
