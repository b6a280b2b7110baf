package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"histar/internal/label"
	"histar/internal/store"
	"histar/internal/unixlib"
)

// The fs workloads are the §7 LFS benchmarks (Figure 12) driven through
// unixlib.Process file calls by a single client.  A round boots a fresh
// system, runs every phase once, then crashes the disk and checks that each
// synced file came back with its acknowledged bytes.  Every round of a run
// uses the same inputs, so its disk and store counts repeat exactly.

// fsShape sizes the fs workloads.
type fsShape struct {
	// fs-small: files of 3/4..5/4 KiB in one directory.
	files int
	// fs-large: one file of chunks×8 KiB (±jitter chunks, by seed),
	// then overwrites sync overwrites.
	chunks, jitter, overwrites int
}

var (
	fullFS  = fsShape{files: 2000, chunks: 1024, jitter: 8, overwrites: 64}
	smallFS = fsShape{files: 100, chunks: 64, jitter: 2, overwrites: 8}
)

const (
	fsExtraSetups = 20
	chunkSize     = 8 << 10
	smallDir      = "/tmp/lfs"
	largePath     = "/tmp/large"
)

// fileCheck is one file the crash check must find: its path and the bytes
// the last acknowledged sync made durable.
type fileCheck struct {
	path string
	want []byte
}

// fsSmallInputs draws the small-file payloads: sizes uniform in
// [768, 1280] bytes, contents random.
func fsSmallInputs(seed int64, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, 768+rng.Intn(513))
		rng.Read(out[i])
	}
	return out
}

func smallPath(i int) string { return fmt.Sprintf("%s/f%05d", smallDir, i) }

// fsSmallRound: create every file (fsync every 10th), group-sync, evict the
// store cache, read every file uncached, unlink every other file,
// group-sync again.
func fsSmallRound(c *client, p *unixlib.Process, payloads [][]byte) (userBytes int64, live []fileCheck) {
	for i, data := range payloads {
		var fd int
		if c.do("create", func() (err error) { fd, err = p.Create(smallPath(i), label.New(label.L1)); return }) != nil {
			continue
		}
		if c.do("write", func() error { return wrote(p.Write(fd, data)) }) == nil {
			userBytes += int64(len(data))
		}
		if i%10 == 9 {
			c.do("fsync", func() error { return p.Fsync(fd) })
		}
		c.do("close", func() error { return p.Close(fd) })
	}
	c.do("group_sync", p.GroupSync)
	p.Sys().EvictFileCache()
	buf := make([]byte, 2048)
	for i, data := range payloads {
		var fd int
		if c.do("open", func() (err error) { fd, err = p.Open(smallPath(i), unixlib.ORead); return }) != nil {
			continue
		}
		var n int
		if c.do("read", func() (err error) { n, err = p.Read(fd, buf); return }) == nil && !bytes.Equal(buf[:n], data) {
			c.fail(fmt.Errorf("read %s: got %d bytes, not the %d written", smallPath(i), n, len(data)))
		}
		c.do("close", func() error { return p.Close(fd) })
	}
	for i := 0; i < len(payloads); i += 2 {
		c.do("unlink", func() error { return p.Unlink(smallPath(i)) })
	}
	c.do("group_sync", p.GroupSync)
	for i := 1; i < len(payloads); i += 2 {
		live = append(live, fileCheck{smallPath(i), payloads[i]})
	}
	return userBytes, live
}

// fsLargeInputs draws the large file's contents (about 8 MiB; the chunk
// count varies by a few chunks with the seed), the overwrite chunks and
// their scattered chunk-aligned offsets.
func fsLargeInputs(seed int64, sh fsShape) (file []byte, over [][]byte, offs []int64) {
	rng := rand.New(rand.NewSource(seed))
	n := sh.chunks + rng.Intn(2*sh.jitter+1) - sh.jitter
	file = make([]byte, n*chunkSize)
	rng.Read(file)
	for i := 0; i < sh.overwrites; i++ {
		b := make([]byte, chunkSize)
		rng.Read(b)
		over = append(over, b)
		offs = append(offs, int64(rng.Intn(n))*chunkSize)
	}
	return file, over, offs
}

// fsLargeRound: write the file in 8 KiB chunks and fsync it, read it back
// uncached in 8 KiB chunks, then do sync overwrites (Pwrite + Fsync) at
// scattered offsets.
func fsLargeRound(c *client, p *unixlib.Process, file []byte, over [][]byte, offs []int64) (userBytes int64, live []fileCheck) {
	var fd int
	if c.do("create", func() (err error) { fd, err = p.Create(largePath, label.New(label.L1)); return }) != nil {
		return 0, nil
	}
	for off := 0; off < len(file); off += chunkSize {
		if c.do("write", func() error { return wrote(p.Write(fd, file[off:off+chunkSize])) }) == nil {
			userBytes += chunkSize
		}
	}
	c.do("fsync", func() error { return p.Fsync(fd) })
	c.do("close", func() error { return p.Close(fd) })
	p.Sys().EvictFileCache()

	if c.do("open", func() (err error) { fd, err = p.Open(largePath, unixlib.ORead|unixlib.OWrite); return }) != nil {
		return userBytes, nil
	}
	buf := make([]byte, chunkSize)
	for off := 0; off < len(file); off += chunkSize {
		var n int
		if c.do("read", func() (err error) { n, err = p.Read(fd, buf); return }) == nil && !bytes.Equal(buf[:n], file[off:off+chunkSize]) {
			c.fail(fmt.Errorf("read %s at %d: contents differ from what was written", largePath, off))
		}
	}
	want := append([]byte(nil), file...)
	for i, b := range over {
		if c.do("pwrite", func() error { return wrote(p.Pwrite(fd, b, offs[i])) }) == nil {
			userBytes += chunkSize
			copy(want[offs[i]:], b)
		}
		c.do("fsync", func() error { return p.Fsync(fd) })
	}
	c.do("close", func() error { return p.Close(fd) })
	return userBytes, []fileCheck{{largePath, want}}
}

// wrote turns a short write into an error.
func wrote(n int, err error) error {
	if err == nil && n == 0 {
		return errors.New("short write")
	}
	return err
}

// fsRound runs one round of fs-small or fs-large on a fresh system.
func fsRound(cfg config, traced bool) (*runResult, error) {
	sh := fullFS
	if cfg.small {
		sh = smallFS
	}
	r := newRig()
	warmHeap()
	res := &runResult{Clients: 1, Repeats: true}
	setup := func() (*unixlib.Process, error) {
		t0 := time.Now()
		if err := r.boot(); err != nil {
			return nil, err
		}
		p, err := r.sys.NewInitProcess("bench")
		if err == nil && cfg.workload == "fs-small" {
			err = p.Mkdir(smallDir, label.New(label.L1))
		}
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		res.Setups = append(res.Setups, time.Since(t0))
		return p, nil
	}
	// Booting takes well under a millisecond, so extra setups give
	// setup_s a steady median.  The last one is the round's system.
	var p *unixlib.Process
	for i := 0; i <= fsExtraSetups; i++ {
		var err error
		if p, err = setup(); err != nil {
			return nil, err
		}
	}

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	r.dev.tr = tr
	c := newClient(tr, true)
	rd := round{Traced: traced}
	before := r.snapshot(nil)
	cpu0, w0 := processCPU(), time.Now()
	var live []fileCheck
	var user int64
	if cfg.workload == "fs-small" {
		user, live = fsSmallRound(c, p, fsSmallInputs(cfg.seed, sh.files))
	} else {
		file, over, offs := fsLargeInputs(cfg.seed, sh)
		user, live = fsLargeRound(c, p, file, over, offs)
	}
	end := time.Now()
	rd.Wall, rd.CPU = end.Sub(w0), processCPU()-cpu0
	rd.Delta = r.snapshot(nil).sub(before)
	r.dev.tr = nil
	rd.merge(c)
	rd.Steps = c.steps(end)
	rd.collect(tr)
	rd.UserBytes = float64(user)

	rd.HeapMiB = r.liveHeapMiB()

	st, err := crashCheck(r, p, live)
	if err != nil {
		res.Violations = append(res.Violations, err.Error())
	} else {
		// Space is measured once everything synced is home: after
		// recovery and a checkpoint.
		if err := st.Checkpoint(); err != nil {
			return nil, fmt.Errorf("checkpoint after recovery: %w", err)
		}
		var liveBytes int64
		for _, f := range live {
			liveBytes += int64(len(f.want))
		}
		rd.SpaceAmp = safeDiv(float64(r.inUse(st)), float64(liveBytes))
	}
	res.Rounds = append(res.Rounds, rd)
	return res, nil
}

// crashCheck loses the disk's write cache, reopens the store and checks
// that every synced file's object holds its acknowledged bytes.  It
// returns the reopened store.
func crashCheck(r *rig, p *unixlib.Process, live []fileCheck) (*store.Store, error) {
	ids := make([]uint64, len(live))
	for i, f := range live {
		fi, err := p.Stat(f.path)
		if err != nil {
			return nil, fmt.Errorf("crash check: stat %s: %w", f.path, err)
		}
		ids[i] = uint64(fi.ID)
	}
	st, err := r.reopen()
	if err != nil {
		return nil, fmt.Errorf("crash check: reopen after crash: %w", err)
	}
	for i, f := range live {
		got, err := st.Get(ids[i])
		if err != nil {
			return nil, fmt.Errorf("lost acknowledged write: %s (object %d): %w", f.path, ids[i], err)
		}
		if !bytes.Equal(got, f.want) {
			return nil, fmt.Errorf("lost acknowledged write: %s (object %d) holds %d bytes that differ from the %d acknowledged", f.path, ids[i], len(got), len(f.want))
		}
	}
	return st, nil
}
