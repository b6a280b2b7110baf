package unixlib

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"

	"histar/internal/disk"
	"histar/internal/kernel"
	"histar/internal/label"
	"histar/internal/store"
)

// The persistence bridge keeps one copy of a file's bytes, the kernel's
// segment: writes only mark the file in the store, and the store copies the
// segment in at fsync and checkpoint.

// crashReopen loses the disk's write cache and mounts the store again.
func crashReopen(t *testing.T, st *store.Store) *store.Store {
	t.Helper()
	d := st.Disk().(*disk.Disk)
	d.Crash()
	st2, err := store.Open(d, store.Options{LogSize: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return st2
}

func TestWritesCopyNothingUntilFsync(t *testing.T) {
	sys, st, _ := bootSysPersist(t)
	p, err := sys.NewInitProcess("root")
	if err != nil {
		t.Fatal(err)
	}
	fd, err := p.Create("/tmp/chunks", label.Label{})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := p.getFD(fd)
	id := uint64(f.File.Object)
	before := st.Stats()
	var want []byte
	for i := 0; i < 32; i++ {
		chunk := bytes.Repeat([]byte{byte(i)}, 512)
		if _, err := p.Write(fd, chunk); err != nil {
			t.Fatal(err)
		}
		want = append(want, chunk...)
	}
	if _, err := p.Pwrite(fd, []byte("patched"), 100); err != nil {
		t.Fatal(err)
	}
	copy(want[100:], "patched")
	mid := st.Stats()
	if mid.Puts != before.Puts || mid.BytesLogged != before.BytesLogged {
		t.Fatalf("async writes moved store bytes: puts %d → %d, logged %d → %d",
			before.Puts, mid.Puts, before.BytesLogged, mid.BytesLogged)
	}
	if !st.Cached(id) {
		t.Error("a marked file must count as resident")
	}
	st.EvictCache()
	if !st.Cached(id) {
		t.Error("EvictCache dropped a marked file's mark")
	}
	if err := p.Fsync(fd); err != nil {
		t.Fatal(err)
	}
	after := st.Stats()
	if after.Puts != mid.Puts+1 {
		t.Errorf("fsync copied the file %d times, want once", after.Puts-mid.Puts)
	}
	if got := after.BytesLogged - mid.BytesLogged; got != uint64(len(want)) {
		t.Errorf("fsync logged %d bytes, want the file's %d", got, len(want))
	}
	st2 := crashReopen(t, st)
	if got, err := st2.Get(id); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("file after crash = %d bytes, %v; want its %d synced bytes", len(got), err, len(want))
	}
}

func TestGroupSyncByUntaintedProcessCapturesTaintedWrites(t *testing.T) {
	sys, st, _ := bootSysPersist(t)
	owner, err := sys.NewInitProcess("owner")
	if err != nil {
		t.Fatal(err)
	}
	c, err := owner.TC.CategoryCreate()
	if err != nil {
		t.Fatal(err)
	}
	secret := label.New(label.L1, label.P(c, label.L3))
	if err := owner.Mkdir("/tmp/secret", secret); err != nil {
		t.Fatal(err)
	}
	want := map[kernel.ID][]byte{}
	var mu sync.Mutex
	var progErr error
	sys.RegisterProgram("/bin/writer", func(p *Process, args []string) int {
		for i := 0; i < 4; i++ {
			data := []byte(fmt.Sprintf("tainted file %d", i))
			fd, err := p.Create(fmt.Sprintf("/tmp/secret/f%d", i), label.Label{})
			if err == nil {
				_, err = p.Write(fd, data)
			}
			if err != nil {
				mu.Lock()
				progErr = err
				mu.Unlock()
				return 1
			}
			f, _ := p.getFD(fd)
			mu.Lock()
			want[f.File.Object] = data
			mu.Unlock()
		}
		return 0
	})
	child, err := owner.SpawnTainted("/bin/writer", nil, []label.Pair{label.P(c, label.L3)})
	if err != nil {
		t.Fatal(err)
	}
	if status, err := owner.Wait(child); err != nil || status != 0 {
		t.Fatalf("tainted writer: status %d, %v, %v", status, err, progErr)
	}
	other, err := sys.NewInitProcess("other")
	if err != nil {
		t.Fatal(err)
	}
	if err := other.GroupSync(); err != nil {
		t.Fatal(err)
	}
	st2 := crashReopen(t, st)
	for id, data := range want {
		if got, err := st2.Get(uint64(id)); err != nil || !bytes.Equal(got, data) {
			t.Errorf("tainted file %v after crash = %q, %v; want %q", id, got, err, data)
		}
		if lbl, ok := st2.Label(uint64(id)); !ok || lbl.Get(c) != label.L3 {
			t.Errorf("tainted file %v lost its taint: %v, %v", id, lbl, ok)
		}
	}
	if len(want) != 4 {
		t.Fatalf("writer created %d files, want 4", len(want))
	}
}

// TestWriteFsyncRaceKeepsNewestBytes races writers and fsyncs on one file.
// Each fsync copies the segment in under the store's entry lock, so no
// older copy can be installed over a newer one: after every round of races
// a final fsync leaves the store holding exactly the kernel's bytes, and so
// does a crash after the last round.
func TestWriteFsyncRaceKeepsNewestBytes(t *testing.T) {
	sys, st, _ := bootSysPersist(t)
	const (
		writers  = 2
		fsyncers = 2
		episodes = 100
		rounds   = 8
		slot     = 64
	)
	// Every process opens the file before any goroutine starts, so the
	// writes and fsyncs overlap.
	procs := make([]*Process, 1+writers+fsyncers)
	fds := make([]int, len(procs))
	for i := range procs {
		p, err := sys.NewInitProcess(fmt.Sprintf("p%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := p.WriteFile("/tmp/raced", make([]byte, writers*slot), label.New(label.L1)); err != nil {
				t.Fatal(err)
			}
		}
		if fds[i], err = p.Open("/tmp/raced", ORead|OWrite); err != nil {
			t.Fatal(err)
		}
		procs[i] = p
	}
	root, rootFD := procs[0], fds[0]
	f, _ := root.getFD(rootFD)
	id := uint64(f.File.Object)
	storeMatchesKernel := func(st *store.Store, when string) {
		t.Helper()
		kernelBytes, err := root.ReadFile("/tmp/raced")
		if err != nil {
			t.Fatal(err)
		}
		if got, err := st.Get(id); err != nil || !bytes.Equal(got, kernelBytes) {
			t.Fatalf("%s: store differs from the kernel's bytes (%v)", when, err)
		}
	}
	for ep := 0; ep < episodes; ep++ {
		var wg sync.WaitGroup
		for i := 1; i < len(procs); i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				buf := make([]byte, slot)
				for r := 1; r <= rounds; r++ {
					var err error
					if i <= writers {
						binary.LittleEndian.PutUint64(buf, uint64(ep*rounds+r))
						_, err = procs[i].Pwrite(fds[i], buf, int64((i-1)*slot))
					} else {
						err = procs[i].Fsync(fds[i])
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}(i)
		}
		wg.Wait()
		if err := root.Fsync(rootFD); err != nil {
			t.Fatal(err)
		}
		storeMatchesKernel(st, fmt.Sprintf("episode %d", ep))
	}
	storeMatchesKernel(crashReopen(t, st), "after crash")
}

func TestStoreErrorsReachTheCaller(t *testing.T) {
	sys, st, _ := bootSysPersist(t)
	p, err := sys.NewInitProcess("root")
	if err != nil {
		t.Fatal(err)
	}
	fd, err := p.Create("/tmp/before-close", label.Label{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	check := func(op string, err error) {
		t.Helper()
		if !errors.Is(err, ErrIO) || !errors.Is(err, store.ErrClosed) {
			t.Errorf("%s against a closed store = %v; want ErrIO wrapping store.ErrClosed", op, err)
		}
	}
	_, err = p.Create("/tmp/after-close", label.Label{})
	check("Create", err)
	_, err = p.Write(fd, []byte("lost"))
	check("Write", err)
	check("Unlink", p.Unlink("/tmp/before-close"))
}
