package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"histar/internal/disk"
)

// Spans are recorded by the benchmark around its own calls into the system:
// one span per webd.Server.Serve call, per unixlib.Process file call, and
// per disk.Device call the store makes.  Nothing inside the program is
// instrumented.  Spans stay in memory until the run ends.

// span is one timed call.  Op spans (Serve, file calls) have no parent and
// are their own operation; a disk span's parent and operation are the op
// span the generator goroutine was inside when the device was called.
type span struct {
	Name       string
	ID, Parent uint64
	Start, End int64 // ns since the tracer's epoch
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans.  cur is the current op of the single generator
// goroutine; it is only set on the single-client workloads, where it names
// the parent of every disk call unambiguously.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64
	cur   atomic.Uint64

	mu   sync.Mutex
	kept []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.kept = append(t.kept, s)
	t.mu.Unlock()
}

// take returns the spans recorded since the last take.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.kept
	t.kept = nil
	return s
}

// tracedDevice is the disk.Device handed to store.Format and store.Open.
// With a tracer it records a span per call and the host time spent inside
// the device; without one it only forwards.
type tracedDevice struct {
	d      disk.Device
	tr     *tracer
	hostNs atomic.Int64
}

func (td *tracedDevice) call(name string, f func() error) error {
	if td.tr == nil {
		return f()
	}
	s := span{Name: name, ID: td.tr.next.Add(1), Parent: td.tr.cur.Load(), Start: td.tr.now()}
	err := f()
	s.End = td.tr.now()
	td.hostNs.Add(s.dur())
	td.tr.add(s)
	return err
}

func (td *tracedDevice) ReadAt(p []byte, off int64) (n int, err error) {
	err = td.call("disk.read", func() error { n, err = td.d.ReadAt(p, off); return err })
	return n, err
}

func (td *tracedDevice) WriteAt(p []byte, off int64) (n int, err error) {
	err = td.call("disk.write", func() error { n, err = td.d.WriteAt(p, off); return err })
	return n, err
}

func (td *tracedDevice) Flush() error { return td.call("disk.flush", td.d.Flush) }

func (td *tracedDevice) Size() int64 { return td.d.Size() }

// traceSummary is what the per-layer report needs from a round's spans.
type traceSummary struct {
	// Self holds each op's self time (its span minus the part of it that
	// its disk child spans cover), keyed by op name.
	Self map[string][]time.Duration
	// OpNs, SelfNs and ChildNs total op span time, op self time and the
	// disk time covered inside ops; OpNs == SelfNs + ChildNs.
	OpNs, SelfNs, ChildNs int64
	// OrphanNs is disk span time with no enclosing op (background work).
	OrphanNs int64
	// Escaped counts disk spans that reach outside their parent op, which
	// would make the parent attribution wrong.
	Escaped   int
	SpanCount int
}

// summarize computes self times from one round's spans.
func summarize(spans []span) traceSummary {
	ts := traceSummary{Self: make(map[string][]time.Duration), SpanCount: len(spans)}
	children := make(map[uint64][]span)
	ops := make([]span, 0, len(spans))
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.Name, "disk."):
			if s.Parent == 0 {
				ts.OrphanNs += s.dur()
			} else {
				children[s.Parent] = append(children[s.Parent], s)
			}
		default:
			ops = append(ops, s)
		}
	}
	for _, op := range ops {
		covered := coverage(op, children[op.ID], &ts.Escaped)
		ts.OpNs += op.dur()
		ts.ChildNs += covered
		ts.SelfNs += op.dur() - covered
		ts.Self[op.Name] = append(ts.Self[op.Name], time.Duration(op.dur()-covered))
	}
	return ts
}

// coverage returns how much of op's interval its children cover, merging
// overlaps and clipping to the op.
func coverage(op span, kids []span, escaped *int) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, hi int64 = 0, op.Start
	for _, k := range kids {
		if k.Start < op.Start || k.End > op.End {
			*escaped++
		}
		lo, end := max(k.Start, hi), min(k.End, op.End)
		if end > lo {
			total += end - lo
			hi = end
		}
	}
	return total
}

// writeSpans writes the rounds' spans as CSV.  Ids and times are per
// round: each round ran in its own process with its own tracer.
func writeSpans(path string, rounds []round) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "round,name,id,parent,start_ns,end_ns")
	for i, rd := range rounds {
		for _, s := range rd.Spans {
			fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n", i, s.Name, s.ID, s.Parent, s.Start, s.End)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
