package main

import (
	"math"
	"sort"
	"time"
)

// metric is one reported value.  note, when set, says why the value is 0
// on this workload; it is printed in the human summary, not the JSON.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	note  string
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// ratio sets num/den, or 0 with a note when the layer did no such work.
func (m metricSet) ratio(name string, num, den float64, unit string) {
	if den == 0 {
		m[name] = metric{Unit: unit, note: "no such work on this workload"}
		return
	}
	m.set(name, num/den, unit)
}

// selectRounds returns the rounds of one half of a run (all rounds of an
// untraced run).
func selectRounds(res *runResult, traced bool) []round {
	var out []round
	for _, rd := range res.Rounds {
		if rd.Traced == traced {
			out = append(out, rd)
		}
	}
	return out
}

// sorted returns a sorted copy of d.
func sorted(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// endToEnd computes the metrics a user of the system sees.  Each is the
// median over rounds of the round's own value, so a few rounds slowed by
// the host do not move it; the timing metrics of a run whose rounds repeat
// the same ops are the exception (see timing).
func endToEnd(res *runResult, rounds []round) metricSet {
	var cpu, sim, wamp, samp, heap []float64
	for _, rd := range rounds {
		cpu = append(cpu, safeDiv(float64(rd.CPU.Microseconds()), float64(rd.ops())))
		sim = append(sim, rd.Delta["disk.sim_ns"]/1e9)
		wamp = append(wamp, safeDiv(rd.Delta["disk.bytes_written"], rd.UserBytes))
		samp = append(samp, rd.SpaceAmp)
		heap = append(heap, rd.HeapMiB)
	}
	setups := make([]float64, len(res.Setups))
	for i, d := range res.Setups {
		setups[i] = d.Seconds()
	}
	tput, p50, p99 := timing(res, rounds)
	m := metricSet{}
	m.set("throughput_ops_s", tput, "ops/s")
	m.set("latency_p50_us", p50, "us")
	m.set("latency_p99_us", p99, "us")
	m.set("cpu_us_per_op", median(cpu), "us")
	m.set("sim_disk_s", median(sim), "s")
	m.set("write_amp", median(wamp), "ratio")
	m.set("space_amp", median(samp), "ratio")
	m.set("heap_mib", median(heap), "MiB")
	m.set("setup_s", median(setups), "s")
	return m
}

// timing returns throughput and the p50 and p99 latency of rounds.
//
// When the rounds repeat the same ops (the fs workloads), op i's latency is
// its median over the rounds, and so is the step from its start to the
// next op's; the percentiles are taken over those per-op medians, and
// throughput is the op count over the sum of the median steps.  The host
// slows a round in bursts, so this keeps an op the host stalled in a few
// rounds from reaching the tail.  Otherwise (web-mixed, whose rounds draw
// different requests) each round's throughput and percentiles are taken
// and their medians over the rounds reported.
func timing(res *runResult, rounds []round) (tput, p50, p99 float64) {
	if res.Repeats {
		lat := sorted(perOpMedian(rounds, func(rd round) []time.Duration { return rd.Lat }))
		var total time.Duration
		for _, d := range perOpMedian(rounds, func(rd round) []time.Duration { return rd.Steps }) {
			total += d
		}
		return safeDiv(float64(len(lat)), total.Seconds()), percentile(lat, 0.50), percentile(lat, 0.99)
	}
	var tputs, p50s, p99s []float64
	for _, rd := range rounds {
		lat := sorted(rd.Lat)
		tputs = append(tputs, safeDiv(float64(rd.ops()), rd.Wall.Seconds()))
		p50s = append(p50s, percentile(lat, 0.50))
		p99s = append(p99s, percentile(lat, 0.99))
	}
	return median(tputs), median(p50s), median(p99s)
}

// perOpMedian returns, for each op position the rounds share, the median
// over the rounds of that op's value.
func perOpMedian(rounds []round, get func(round) []time.Duration) []time.Duration {
	n := -1
	for _, rd := range rounds {
		if v := get(rd); n < 0 || len(v) < n {
			n = len(v)
		}
	}
	out := make([]time.Duration, max(n, 0))
	col := make([]time.Duration, len(rounds))
	for i := range out {
		for r, rd := range rounds {
			col[r] = get(rd)[i]
		}
		out[i] = median(col)
	}
	return out
}

// overheadMetrics are the end-to-end metrics tracing can disturb.  The
// rest are simulated or counted, except heap_mib, which in a traced round
// also holds the kept spans.
var overheadMetrics = []string{"throughput_ops_s", "latency_p50_us", "latency_p99_us", "cpu_us_per_op"}

// unixlibOps are the file calls whose self time is reported.
var unixlibOps = []string{"create", "write", "pwrite", "fsync", "group_sync", "read", "unlink"}

// perLayer computes the per-layer metrics from the traced half of a trace
// run, plus the tracing overhead against the untraced half.
func perLayer(res *runResult) metricSet {
	traced, plain := selectRounds(res, true), selectRounds(res, false)
	m := metricSet{}
	sum := counters{}
	var ops, syncs, user float64
	var opNs, diskNs, orphanNs int64
	self := map[string][]time.Duration{}
	for _, rd := range traced {
		sum.add(rd.Delta)
		ops += float64(rd.ops())
		syncs += float64(rd.ByOp["fsync"] + rd.ByOp["group_sync"])
		user += rd.UserBytes
		for k, v := range rd.Summary.Self {
			self[k] = append(self[k], v...)
		}
		opNs += rd.Summary.OpNs
		diskNs += rd.Summary.ChildNs
		orphanNs += rd.Summary.OrphanNs
	}
	n := float64(len(traced))
	perRound := func(name, key, unit string) { m.set(name, safeDiv(sum[key], n), unit) }

	// webd
	m.ratio("webd.session_hit_rate", sum["webd.hits"], sum["webd.hits"]+sum["webd.misses"], "ratio")
	m.ratio("webd.cold_logins_per_kop", 1000*sum["webd.cold_logins"], ops, "1/kop")
	m.ratio("webd.evictions_per_kop", 1000*sum["webd.evictions"], ops, "1/kop")
	if sum["webd.hits"]+sum["webd.misses"] == 0 {
		for _, k := range []string{"webd.cold_logins_per_kop", "webd.evictions_per_kop"} {
			m[k] = metric{Unit: m[k].Unit, note: "no web requests on this workload"}
		}
	}

	// kernel
	m.ratio("kernel.syscalls_per_op", sum["kernel.syscalls"], ops, "1/op")
	for _, sc := range []string{"segment_write", "segment_read", "category_create"} {
		m.ratio("kernel."+sc+"_per_op", sum["kernel.sys."+sc], ops, "1/op")
	}
	m.ratio("kernel.ring_entries_per_wait", sum["kernel.ring_entries"], sum["kernel.ring_waits"], "1/wait")
	m.ratio("kernel.ring_coalesce_rate", sum["kernel.ring_coalesced"], sum["kernel.ring_runs"]+sum["kernel.ring_coalesced"], "ratio")
	m.ratio("kernel.ring_gate_calls_per_op", sum["kernel.ring_gate_calls"], ops, "1/op")
	m.set("kernel.live_objects", sum["max.live_objects"], "count")
	perRound("kernel.snapshot_shared_bytes", "kernel.snapshot_shared_bytes", "B/round")
	perRound("kernel.snapshot_copied_bytes", "kernel.snapshot_copied_bytes", "B/round")
	perRound("kernel.cow_breaks", "kernel.cow_breaks", "1/round")

	// label
	m.ratio("label.cache_hit_rate", sum["label.cache_hits"], sum["label.cache_hits"]+sum["label.cache_misses"], "ratio")
	m.ratio("label.l1_hit_rate", sum["label.l1_hits"], sum["label.l1_hits"]+sum["label.l1_misses"], "ratio")
	m.set("label.intern_count", sum["max.intern_count"], "count")
	m.ratio("label.categories_allocated_per_op", sum["label.categories"], ops, "1/op")

	// unixlib: p50 self time per file call
	for _, op := range unixlibOps {
		name := "unixlib." + op + "_self_us"
		if len(self[op]) == 0 {
			m[name] = metric{Unit: "us", note: "the workload makes no " + op + " calls"}
			continue
		}
		m.set(name, percentile(sorted(self[op]), 0.5), "us")
	}

	// store and wal
	m.ratio("store.puts_per_op", sum["store.puts"], ops, "1/op")
	m.ratio("store.gets_per_op", sum["store.gets"], ops, "1/op")
	m.ratio("store.bytes_logged_per_user_byte", sum["store.bytes_logged"], user, "ratio")
	m.ratio("store.bytes_home_per_user_byte", sum["store.bytes_home"], user, "ratio")
	perRound("store.bytes_cleaned", "store.bytes_cleaned", "B/round")
	perRound("store.checkpoints", "store.checkpoints", "1/round")
	m.ratio("store.wal_commits_per_sync", sum["store.wal_commits"], syncs, "1/sync")
	m.ratio("wal.bytes_per_commit", sum["wal.batch_bytes"], sum["wal.commits"], "B/commit")
	m.set("wal.max_batch", sum["max.wal_batch"], "records")

	// disk
	for _, k := range []string{"reads", "writes", "flushes", "seeks"} {
		perRound("disk."+k, "disk."+k, "1/round")
	}
	perRound("disk.bytes_read", "disk.bytes_read", "B/round")
	perRound("disk.bytes_written", "disk.bytes_written", "B/round")
	m.ratio("disk.prefetch_hit_rate", sum["disk.prefetch_hits"], sum["disk.reads"], "ratio")
	m.set("disk.host_us", safeDiv(sum["disk.host_ns"]/1e3, n), "us/round")

	// runtime
	m.ratio("runtime.gc_cpu_share", sum["runtime.gc_cpu_s"], sum["runtime.cpu_s"], "ratio")
	m.ratio("runtime.alloc_bytes_per_op", sum["runtime.alloc_bytes"], ops, "B/op")

	// tracing: how much of op time the disk spans cover, and what tracing
	// costs against the untraced rounds of the same run
	m.ratio("trace.disk_share", float64(diskNs), float64(opNs), "ratio")
	m.set("trace.unattributed_disk_us", safeDiv(float64(orphanNs)/1e3, n), "us/round")
	on, off := endToEnd(res, traced), endToEnd(res, plain)
	for _, k := range overheadMetrics {
		m.set("trace.overhead_"+k, on[k].Value-off[k].Value, on[k].Unit)
	}
	return m
}

// finite replaces a non-finite value (which JSON cannot carry) with 0 and
// a note.
func (m metricSet) finite() {
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			m[k] = metric{Unit: v.Unit, note: "not finite"}
		}
	}
}
