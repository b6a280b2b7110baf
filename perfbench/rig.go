package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"histar/internal/disk"
	"histar/internal/kernel"
	"histar/internal/store"
	"histar/internal/unixlib"
	"histar/internal/vclock"
)

// diskBytes is the slice of the paper disk the benchmark formats.  Only the
// capacity is cut; seek, rotation, bandwidth and read-ahead are the paper
// drive's, and the write cache is on.
const diskBytes = 256 << 20

// storeOptions matches the Figure 12 harness's store.
var storeOptions = store.Options{LogSize: 64 << 20}

// rig is one simulated machine: a disk, a store formatted on it through the
// traced device wrapper, and a unixlib system booted on the store.  A
// round allocates one disk and reformats it for every setup.
type rig struct {
	clk  *vclock.Clock
	disk *disk.Disk
	dev  *tracedDevice
	st   *store.Store
	sys  *unixlib.System
	// free0 is the store's free space right after Format; in-use bytes
	// are measured against it.
	free0 int64
}

func newRig() *rig {
	p := disk.PaperDisk()
	p.Sectors = diskBytes / disk.SectorSize
	p.WriteCache = true
	clk := &vclock.Clock{}
	d := disk.New(p, clk)
	return &rig{clk: clk, disk: d, dev: &tracedDevice{d: d}}
}

// kernelSeed seeds the kernel's category allocator.  It is fixed: the
// workload seed shapes only the inputs the system is given.
const kernelSeed = 42

// boot formats the disk and boots a fresh system on it.  The disk is first
// reset to the state of a new device (empty write cache, head at 0, zero
// counters, clock at 0), so every boot in a run starts identically.
func (r *rig) boot() error {
	r.disk.Crash()
	r.disk.ResetStats()
	r.clk.Reset()
	r.dev.hostNs.Store(0)
	st, err := store.Format(r.dev, storeOptions)
	if err != nil {
		return fmt.Errorf("format: %w", err)
	}
	sys, err := unixlib.Boot(unixlib.BootOptions{Persist: st, KernelConfig: kernel.Config{Seed: kernelSeed}})
	if err != nil {
		return fmt.Errorf("boot: %w", err)
	}
	r.st, r.sys, r.free0 = st, sys, st.FreeBytes()
	return nil
}

// inUse is the data-region space st holds; st is the rig's store or the
// one reopened from its disk.
func (r *rig) inUse(st *store.Store) int64 { return r.free0 - st.FreeBytes() }

// reopen simulates a power failure and mounts the store again from what
// reached the platter.
func (r *rig) reopen() (*store.Store, error) {
	r.disk.Crash()
	return store.Open(r.dev, storeOptions)
}

// liveHeapMiB forces a collection and returns the live heap without the
// disk's sector array.
func (r *rig) liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(int64(ms.HeapAlloc)-r.disk.Size()) / (1 << 20)
}

// warmHeap touches diskBytes of fresh heap and lets it go, before a round
// sets up (fs) or measures (web).  The disk's sector array lives on the Go
// heap, so the collector lets the heap grow by about its size before it
// collects.  In a fresh process that growth is first-touch page faults:
// about a fifth of an fs-small round's CPU time, at a cost that varies with
// the host far more than the program's own work does.  Touched here, the
// pages stay mapped, and the round allocates from them.
func warmHeap() {
	b := make([]byte, diskBytes)
	for i := 0; i < len(b); i += os.Getpagesize() {
		b[i] = 1
	}
	runtime.GC()
}

// client is one generator goroutine: it times every call it makes and,
// when traced, records a span for it.
type client struct {
	tr *tracer // nil when the round is untraced
	// setCur makes this client's current op the parent of disk spans;
	// the fs client and the web round's syncer set it.
	setCur bool
	lat    []time.Duration
	starts []time.Time
	byOp   map[string]int
	failed int
	errs   []string
}

func newClient(tr *tracer, setCur bool) *client {
	return &client{tr: tr, setCur: setCur, byOp: make(map[string]int)}
}

// do runs one operation.  A failed operation is counted and its first few
// errors kept for the report.
func (c *client) do(name string, f func() error) error {
	var s span
	if c.tr != nil {
		s = span{Name: name, ID: c.tr.next.Add(1)}
		if c.setCur {
			c.tr.cur.Store(s.ID)
		}
		s.Start = c.tr.now()
	}
	t0 := time.Now()
	err := f()
	c.lat = append(c.lat, time.Since(t0))
	c.starts = append(c.starts, t0)
	if c.tr != nil {
		s.End = c.tr.now()
		if c.setCur {
			c.tr.cur.Store(0)
		}
		c.tr.add(s)
	}
	c.byOp[name]++
	if err != nil {
		c.fail(fmt.Errorf("%s: %w", name, err))
	}
	return err
}

// steps returns the time from each op's start to the next op's start, and
// from the last op's start to end.
func (c *client) steps(end time.Time) []time.Duration {
	out := make([]time.Duration, len(c.starts))
	for i, t := range c.starts {
		next := end
		if i+1 < len(c.starts) {
			next = c.starts[i+1]
		}
		out[i] = next.Sub(t)
	}
	return out
}

func (c *client) fail(err error) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, err.Error())
	}
}
