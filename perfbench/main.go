// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed time and prints every metric by name and
// unit, then one JSON result line:
//
//	bash perfbench/run.sh --workload sim-queue-deep --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//   - sim-queue-deep: Figure 6 (Algorithm 3, one queue per worker) at
//     workers {1, 8}, 8,000 messages of 4 KB, so queue backlogs are 8,000
//     and 1,000. The queue engine's per-op scan dominates it.
//   - sim-table-crud: Figure 8 (Algorithm 5) at workers {1, 8, 32}, 500
//     entities per worker of {4, 16, 64} KB. It stresses kernel handoff,
//     GC and table cloning and never touches the queue engine, so it is
//     the control for queue-engine work.
//   - live-mixed: an in-process rest.Server (throttle off) on loopback,
//     driven by two closed-loop sdk clients on one connection each. 60%
//     table Get (zipf 0.99 over 2,000 preloaded 1 KB entities), 15% table
//     Replace, 15% queue Put->Get->Delete on a shallow queue and 10% blob
//     Upload->Download of 1 KB.
//
// With --trace 0 the run is untraced and reports the end-to-end metrics.
// With --trace 1 it repeats a shorter untraced run, then a traced run with
// a CPU profile and per-layer timers, then an engine-direct replay, and
// reports the per-layer metrics. See README.md for every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// options are the command-line arguments.
type options struct {
	seed    int64
	seconds float64
	trace   bool
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*result, error){
	"sim-queue-deep": simQueueDeep.run,
	"sim-table-crud": simTableCRUD.run,
	"live-mixed":     runLive,
}

func main() {
	name := flag.String("workload", "", "workload to run (sim-queue-deep, sim-table-crud, live-mixed)")
	seed := flag.Int64("seed", defaultSeed, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 30, "how long the measured phase runs")
	trace := flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	// A hung program must still end the run, without a result.
	limit := time.Duration(2**seconds+100) * time.Second
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", limit)
		os.Exit(1)
	})
	fmt.Println("# " + stamp())
	res, err := run(options{seed: *seed, seconds: float64(*seconds), trace: *trace == 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.Correct = res.Correct && res.Failed == 0
	printHuman(res)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// printHuman prints one "name value unit" line per metric ahead of the
// JSON line, with the error rate, which is not a metric because it is 0
// on a correct commit.
func printHuman(r *result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	rate := 0.0
	if r.Attempted > 0 {
		rate = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("%-28s %14.6g ratio (%d failed of %d attempted, correct=%v)\n", "error_rate", rate, r.Failed, r.Attempted, r.Correct)
}
