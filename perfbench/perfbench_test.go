package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"histar/internal/label"
)

// contract is the part of BENCHMARK.json the self-test checks against.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// tiny runs a small-shape workload in this process for the fewest rounds
// the loop allows: one, or one untraced and one traced.
func tiny(t *testing.T, workload string, trace bool) *runResult {
	t.Helper()
	cfg := config{workload: workload, seed: 7, small: true, trace: trace}
	res, err := loop(cfg, func(index int, traced bool) (*runResult, error) {
		cfg.index = index
		return workloads[workload](cfg, traced)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("output checks failed: %v", res.Violations)
	}
	for _, rd := range res.Rounds {
		if rd.Failed > 0 {
			t.Fatalf("%d operations failed: %v", rd.Failed, rd.Errs)
		}
	}
	if res.Clients > runtime.NumCPU() {
		t.Fatalf("%d generator goroutines on %d CPUs", res.Clients, runtime.NumCPU())
	}
	return res
}

func checkMetrics(t *testing.T, got metricSet, want []struct{ Name, Unit string }, nonzero bool) {
	t.Helper()
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: missing", w.Name)
		case m.Unit != w.Unit:
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.note == "not finite":
			t.Errorf("%s: not finite", w.Name)
		case nonzero && m.Value == 0:
			t.Errorf("%s: 0", w.Name)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(got), len(want))
	}
}

// TestShortRuns runs every workload tiny, untraced and traced, and checks
// that each named metric is present, carries its unit and is finite.
func TestShortRuns(t *testing.T) {
	c := loadContract(t)
	for _, w := range c.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			if _, ok := workloads[w.Name]; !ok {
				t.Fatalf("workload %s has no implementation", w.Name)
			}
			cfg := config{workload: w.Name}
			checkMetrics(t, summarizeRun(cfg, tiny(t, w.Name, false)).Metrics, c.EndToEnd, true)

			cfg.trace = true
			res := tiny(t, w.Name, true)
			checkMetrics(t, summarizeRun(cfg, res).Metrics, c.PerLayer, false)
			for _, rd := range res.Rounds {
				if !rd.Traced {
					continue
				}
				s := rd.Summary
				if s.SpanCount == 0 || s.OpNs != s.SelfNs+s.ChildNs {
					t.Errorf("spans %d: op time %d != self %d + disk %d", s.SpanCount, s.OpNs, s.SelfNs, s.ChildNs)
				}
				if strings.HasPrefix(w.Name, "fs-") && (s.Escaped != 0 || s.OrphanNs != 0) {
					t.Errorf("disk spans outside their op: %d escaped, %d ns unattributed", s.Escaped, s.OrphanNs)
				}
			}
		})
	}
}

// TestFSDeterministic checks that two runs of an fs workload with the same
// seed produce identical simulated-disk, amplification, disk, store and
// WAL figures.
func TestFSDeterministic(t *testing.T) {
	for _, wl := range []string{"fs-small", "fs-large"} {
		t.Run(wl, func(t *testing.T) {
			a, b := tiny(t, wl, false), tiny(t, wl, false)
			ea, eb := endToEnd(a, a.Rounds), endToEnd(b, b.Rounds)
			for _, k := range []string{"sim_disk_s", "write_amp", "space_amp"} {
				if ea[k].Value != eb[k].Value {
					t.Errorf("%s: %v then %v", k, ea[k].Value, eb[k].Value)
				}
			}
			da, db := a.Rounds[0].Delta, b.Rounds[0].Delta
			for k, v := range da {
				det := strings.HasPrefix(k, "disk.") || strings.HasPrefix(k, "store.") || strings.HasPrefix(k, "wal.") || k == "max.wal_batch"
				if det && k != "disk.host_ns" && v != db[k] {
					t.Errorf("%s: %v then %v", k, v, db[k])
				}
			}
		})
	}
}

// TestCheckProfile checks the web flow check: only a value the requesting
// user set passes.
func TestCheckProfile(t *testing.T) {
	for _, c := range []struct {
		body string
		ok   bool
	}{
		{profileValue(5, 0), true},
		{profileValue(5, 3), true},
		{profileValue(5, 4), false}, // never issued
		{profileValue(6, 1), false}, // another user's value
		{"u5", false},
		{"", false},
	} {
		if err := checkProfile(5, c.body, 3); (err == nil) != c.ok {
			t.Errorf("checkProfile(u5, %q) = %v, want ok=%v", c.body, err, c.ok)
		}
	}
}

// TestCrashCheck checks that the crash check passes synced files and
// reports a file whose write was never synced.
func TestCrashCheck(t *testing.T) {
	r := newRig()
	if err := r.boot(); err != nil {
		t.Fatal(err)
	}
	p, err := r.sys.NewInitProcess("bench")
	if err != nil {
		t.Fatal(err)
	}
	synced, lost := []byte("synced"), []byte("lost")
	if err := p.WriteFile("/tmp/synced", synced, label.New(label.L1)); err != nil {
		t.Fatal(err)
	}
	if err := p.FsyncPath("/tmp/synced"); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteFile("/tmp/lost", lost, label.New(label.L1)); err != nil {
		t.Fatal(err)
	}
	if _, err := crashCheck(r, p, []fileCheck{{"/tmp/synced", synced}}); err != nil {
		t.Errorf("synced file: %v", err)
	}
	if _, err := crashCheck(r, p, []fileCheck{{"/tmp/lost", lost}}); err == nil {
		t.Error("a write that was never synced survived the crash check")
	}
}
