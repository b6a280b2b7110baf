// Command perfbench is the repository's benchmark.  It runs one named
// workload with a seed for a given time and prints every metric by name
// with its unit; the last line of its output is one JSON result.  See
// README.md for the workloads, the metrics and what each one should move.
//
//	perfbench --workload fs-small --seed 1 --seconds 10 --trace 0
//
// It exits 1 when an output check fails (a flow violation or a lost
// acknowledged write) and 2 when the run could not be made.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// roundProcs is GOMAXPROCS in a round's process.  Every workload's load
// comes from one client, and with a second P the garbage collector's
// background work lands on the other core, where it stalls whenever the
// host takes that core; with one P it runs in the client's own time.
const roundProcs = 1

// result is the last line of output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// hostFacts are printed with every result.
type hostFacts struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Nproc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	Clients    int    `json:"generator_goroutines"`
	Rounds     int    `json:"rounds"`
	Setups     int    `json:"setups"`
	// RoundSamples is the fewest latency samples a measured round had,
	// and BeyondP99 how many of them lie above the p99.  With PerOpMedian
	// the percentiles are taken once over that many per-op medians over
	// the rounds; otherwise once per round.
	RoundSamples int  `json:"latency_samples_per_round"`
	BeyondP99    int  `json:"samples_beyond_p99_per_round"`
	PerOpMedian  bool `json:"latency_per_op_median_over_rounds"`
	Spans        int  `json:"spans"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: web-mixed, fs-small or fs-large")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
		seconds  = flag.Float64("seconds", 10, "how long to measure")
		trace    = flag.Int("trace", 0, "1: report per-layer metrics from a traced run instead of end-to-end metrics")
		spansDir = flag.String("spans-dir", "", "with --trace 1, write the recorded spans as CSV into this directory")
		oneRound = flag.Bool("round", false, "run one round in this process and print it as JSON (used by the benchmark itself)")
		index    = flag.Int("index", 0, "with --round, the round's position in the run")
	)
	flag.Parse()
	cfg := config{
		workload: *workload,
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		index:    *index,
	}
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	if *oneRound {
		runtime.GOMAXPROCS(roundProcs)
		res, err := workloads[cfg.workload](cfg, cfg.trace)
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	res, err := loop(cfg, inChild(cfg))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if cfg.trace && *spansDir != "" {
		path := filepath.Join(*spansDir, fmt.Sprintf("spans-%s-seed%d.csv", cfg.workload, cfg.seed))
		if err := writeSpans(path, res.Rounds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(2)
		}
	}
	out := summarizeRun(cfg, res)
	printResult(os.Stdout, cfg, res, out)
	if !out.Correct {
		os.Exit(1)
	}
}

// summarizeRun builds the result: end-to-end metrics from an untraced run,
// per-layer metrics from a traced one.
func summarizeRun(cfg config, res *runResult) result {
	out := result{Correct: len(res.Violations) == 0}
	for _, rd := range res.Rounds {
		out.Attempted += rd.ops()
		out.Failed += rd.Failed
	}
	if cfg.trace {
		out.Metrics = perLayer(res)
	} else {
		out.Metrics = endToEnd(res, res.Rounds)
	}
	out.Metrics.finite()
	return out
}

func printResult(w io.Writer, cfg config, res *runResult, out result) {
	measured := selectRounds(res, cfg.trace)
	n := 0
	for i, rd := range measured {
		if i == 0 || rd.ops() < n {
			n = rd.ops()
		}
	}
	facts := hostFacts{
		Workload:     cfg.workload,
		Seed:         cfg.seed,
		Trace:        cfg.trace,
		GOMAXPROCS:   roundProcs,
		Nproc:        runtime.NumCPU(),
		GoVersion:    runtime.Version(),
		Clients:      res.Clients,
		Rounds:       len(res.Rounds),
		Setups:       len(res.Setups),
		RoundSamples: n,
		BeyondP99:    n - int(math.Ceil(0.99*float64(n))),
		PerOpMedian:  res.Repeats,
	}
	for _, rd := range res.Rounds {
		facts.Spans += len(rd.Spans)
	}
	hf, _ := json.Marshal(facts)
	fmt.Fprintf(w, "host %s\n", hf)
	for _, v := range res.Violations {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", v)
	}
	for _, rd := range res.Rounds {
		for _, e := range rd.Errs {
			fmt.Fprintf(w, "op failed: %v\n", e)
		}
	}
	names := make([]string, 0, len(out.Metrics))
	for k := range out.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := out.Metrics[k]
		line := fmt.Sprintf("%-36s %14.6g %s", k, m.Value, m.Unit)
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	js, _ := json.Marshal(out)
	fmt.Fprintf(w, "%s\n", js)
}
