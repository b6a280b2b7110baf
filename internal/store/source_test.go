package store

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

// fakeSource stands in for the kernel's segments: the object source a
// marking writer leaves the contents in.
type fakeSource struct {
	mu    sync.Mutex
	objs  map[uint64][]byte
	reads int
}

func (f *fakeSource) set(id uint64, v string) {
	f.mu.Lock()
	f.objs[id] = []byte(v)
	f.mu.Unlock()
}

func (f *fakeSource) read(id uint64) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reads++
	v, ok := f.objs[id]
	return append([]byte(nil), v...), ok
}

func (f *fakeSource) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reads
}

func TestMarkCopiesFromSourceOnlyWhenNeeded(t *testing.T) {
	s, d := testStore(t)
	src := &fakeSource{objs: map[uint64][]byte{}}
	s.SetSource(src.read)
	for _, v := range []string{"v1", "v2", "v3"} {
		src.set(1, v)
		if err := s.Mark(1); err != nil {
			t.Fatal(err)
		}
	}
	if n := src.count(); n != 0 {
		t.Fatalf("marks read the source %d times, want 0", n)
	}
	s.EvictCache()
	if !s.Cached(1) {
		t.Fatal("a marked object must stay resident across EvictCache")
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := src.count(); n != 1 {
		t.Fatalf("checkpoint read the source %d times, want 1", n)
	}
	if got, err := s.Get(1); err != nil || string(got) != "v3" {
		t.Fatalf("Get after checkpoint = %q, %v", got, err)
	}
	// A Get of a marked object copies it in first.
	src.set(1, "v4")
	if err := s.Mark(1); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(1); err != nil || string(got) != "v4" {
		t.Fatalf("Get of a marked object = %q, %v", got, err)
	}
	// A marked object the source no longer has keeps the store's state.
	if err := s.Mark(2); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(2); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("Get of an object the source never had = %v", err)
	}
	// A sync copies the current bytes and logs them.
	src.set(1, "v5")
	if err := s.Mark(1); err != nil {
		t.Fatal(err)
	}
	if err := s.SyncObject(1); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	s2, err := Open(d, Options{LogSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s2.Get(1); err != nil || !bytes.Equal(got, []byte("v5")) {
		t.Fatalf("synced object after crash = %q, %v", got, err)
	}
}
