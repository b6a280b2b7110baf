package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	// small shrinks every workload for the self-test.
	small bool
	// index is the round's position in the run.
	index int
}

// workloads run one round each: set up a fresh system, measure, check.
var workloads = map[string]func(cfg config, traced bool) (*runResult, error){
	"web-mixed": webRound,
	"fs-small":  fsRound,
	"fs-large":  fsRound,
}

// round is one measured unit of work on a fresh system: a whole fs
// workload instance, or one batch of web requests and its group sync.
type round struct {
	Traced    bool
	Wall, CPU time.Duration
	Lat       []time.Duration
	// Steps holds, on the fs workloads, the time from each op's start to
	// the next op's start (the last one to the end of the measured
	// phase), so they add up to the measured phase from the first op on.
	Steps     []time.Duration
	ByOp      map[string]int
	Failed    int
	Errs      []string
	Delta     counters
	UserBytes float64
	SpaceAmp  float64
	HeapMiB   float64
	Summary   traceSummary
	Spans     []span
}

func (rd *round) ops() int { return len(rd.Lat) }

// merge adds a client's samples and failures to the round.
func (rd *round) merge(c *client) {
	rd.Lat = append(rd.Lat, c.lat...)
	if rd.ByOp == nil {
		rd.ByOp = make(map[string]int)
	}
	for k, v := range c.byOp {
		rd.ByOp[k] += v
	}
	rd.Failed += c.failed
	rd.Errs = append(rd.Errs, c.errs...)
}

// collect keeps a traced round's spans and their summary.
func (rd *round) collect(tr *tracer) {
	if tr != nil {
		rd.Spans = tr.take()
		rd.Summary = summarize(rd.Spans)
	}
}

// runResult is everything a run (or one round of it) measured.
type runResult struct {
	Setups  []time.Duration
	Rounds  []round
	Clients int
	// Repeats is set when every round of the run makes the same ops in
	// the same order, so op i of one round is op i of every other.
	Repeats bool
	// Violations are failed output checks: a flow violation or a lost
	// acknowledged write.  Any one makes the run incorrect.
	Violations []string
}

func (res *runResult) add(o *runResult) {
	res.Setups = append(res.Setups, o.Setups...)
	res.Rounds = append(res.Rounds, o.Rounds...)
	res.Clients = max(res.Clients, o.Clients)
	res.Repeats = o.Repeats
	res.Violations = append(res.Violations, o.Violations...)
}

// loop runs rounds until the run's time is up, set-ups included, and at
// least one; it stops early at the first failed output check.  In trace
// mode untraced and traced rounds alternate, starting untraced and ending
// traced, so both halves see the same conditions.
func loop(cfg config, one func(index int, traced bool) (*runResult, error)) (*runResult, error) {
	res := &runResult{}
	start := time.Now()
	for i := 0; ; i++ {
		traced := cfg.trace && i%2 == 1
		r, err := one(i, traced)
		if err != nil {
			return nil, err
		}
		res.add(r)
		if len(r.Violations) > 0 {
			return res, nil
		}
		if cfg.trace && !traced {
			continue
		}
		if time.Since(start) >= cfg.duration {
			return res, nil
		}
	}
}

// inChild runs each round in a fresh child process running this program
// with --round, so no round inherits another's heap or the label
// package's process-wide intern table.
func inChild(cfg config) func(int, bool) (*runResult, error) {
	return func(index int, traced bool) (*runResult, error) {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		tr := "0"
		if traced {
			tr = "1"
		}
		cmd := exec.Command(exe, "--round", "--workload", cfg.workload, "--seed", strconv.FormatInt(cfg.seed, 10), "--trace", tr, "--index", strconv.Itoa(index))
		cmd.Stderr = os.Stderr
		// The round dies with this process if it is killed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("round process: %w", err)
		}
		var r runResult
		if err := json.Unmarshal(out, &r); err != nil {
			return nil, fmt.Errorf("round process output: %w", err)
		}
		return &r, nil
	}
}
