package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"sort"
	"time"

	"azurebench/internal/core"
	"azurebench/internal/metrics"
	"azurebench/internal/storecommon"
)

// simWorkload regenerates one paper figure in simulated mode, one data
// point at a time, so each point's wall time is known.
type simWorkload struct {
	name       string
	experiment string
	// The figure's points: every size for every worker count.
	workers, sizesKB []int
	// config returns the configuration of one point; scale > 1 divides
	// each worker's messages or entities (the set-up warm-up uses 8).
	config func(seed int64, workers, sizeKB, scale int) core.Config
	// pointOps is the number of storage operations a point issues
	// (retries excluded), the unit of the per-op metrics.
	pointOps func(workers, scale int) int
	// engine replays the workload's engine calls directly (the bottom
	// rung, traced run only).
	engine func(seed int64) engineResult
}

var simQueueDeep = simWorkload{
	name:       "sim-queue-deep",
	experiment: "fig6",
	workers:    []int{1, 8},
	sizesKB:    []int{4},
	config: func(seed int64, workers, sizeKB, scale int) core.Config {
		cfg := core.DefaultConfig()
		cfg.Seed = seed
		cfg.Workers = []int{workers}
		cfg.QueueMessages = 8000 / scale
		cfg.QueueSizesKB = []int{sizeKB}
		return cfg
	},
	// Create and delete per queue, put/peek/get/delete per message.
	pointOps: func(workers, scale int) int { return 2*workers + 4*8000/scale },
	engine:   queueDeepEngine,
}

var simTableCRUD = simWorkload{
	name:       "sim-table-crud",
	experiment: "fig8",
	workers:    []int{1, 8, 32},
	sizesKB:    []int{4, 16, 64},
	config: func(seed int64, workers, sizeKB, scale int) core.Config {
		cfg := core.DefaultConfig()
		cfg.Seed = seed
		cfg.Workers = []int{workers}
		cfg.TableEntities = 500 / scale
		cfg.TableSizesKB = []int{sizeKB}
		return cfg
	},
	// One create table, then insert/get/update/delete per entity.
	pointOps: func(workers, scale int) int { return 1 + workers*4*500/scale },
	engine:   tableCRUDEngine,
}

// ops is the number of storage operations one regeneration issues.
func (w simWorkload) ops() int {
	n := 0
	for _, k := range w.workers {
		n += w.pointOps(k, 1) * len(w.sizesKB)
	}
	return n
}

// weighted is a value carried by weight operations.
type weighted struct{ v, w float64 }

// weightedQuantile returns the q-quantile of the operations behind xs.
func weightedQuantile(xs []weighted, q float64) float64 {
	xs = append([]weighted(nil), xs...)
	sort.Slice(xs, func(i, j int) bool { return xs[i].v < xs[j].v })
	var total, seen float64
	for _, x := range xs {
		total += x.w
	}
	for _, x := range xs {
		if seen += x.w; seen >= q*total {
			return x.v
		}
	}
	return 0
}

// regen is one figure regeneration.
type regen struct {
	digest    string
	wall, cpu time.Duration
	// perOp is each point's wall microseconds per storage op, weighted by
	// its op count.
	perOp []weighted
	// cloud counts from the operation log (traced regenerations only).
	ops, retries, busy int64
	err                error
}

// regenerate runs the figure's points in the order the experiment runs
// them and merges their figures into the whole figure's report.
func (w simWorkload) regenerate(exp core.Experiment, seed int64, scale int, traced bool) (r regen) {
	defer func() {
		if p := recover(); p != nil {
			r.err = fmt.Errorf("%s: %v", w.experiment, p)
		}
	}()
	var whole core.Report
	c0, t0 := cpuTime(), time.Now()
	for _, kb := range w.sizesKB {
		for _, k := range w.workers {
			cfg := w.config(seed, k, kb, scale)
			cfg.TraceOps = traced
			p0 := time.Now()
			s := core.NewSuite(cfg)
			rep := exp.Run(s)
			ops := float64(w.pointOps(k, scale))
			r.perOp = append(r.perOp, weighted{time.Since(p0).Seconds() * 1e6 / ops, ops})
			mergeFigures(&whole, rep)
			if log := s.TraceLog(); log != nil {
				r.ops += int64(log.Len()) + int64(log.Dropped())
				for _, op := range log.Ops() {
					if op.ParentID != "" {
						r.retries++
					}
					if op.Err == string(storecommon.CodeServerBusy) {
						r.busy++
					}
				}
			}
		}
	}
	r.wall, r.cpu = time.Since(t0), cpuTime()-c0
	r.digest = whole.CSVDigest()
	return r
}

// mergeFigures appends one point's report to the whole figure's, series
// by series, as the experiment itself would have added them.
func mergeFigures(whole, point *core.Report) {
	if whole.Figures == nil {
		whole.Figures = make([]metrics.Figure, len(point.Figures))
		for i, f := range point.Figures {
			whole.Figures[i] = metrics.Figure{Title: f.Title, XLabel: f.XLabel, YLabel: f.YLabel}
		}
	}
	for i, f := range point.Figures {
		for _, s := range f.Series {
			for _, p := range s.Points {
				whole.Figures[i].AddPoint(s.Name, p.X, p.Y)
			}
		}
	}
}

// simRun tracks one run's regenerations and checks each against the
// first one and against the digest recorded for the seed.
type simRun struct {
	w      simWorkload
	exp    core.Experiment
	seed   int64
	res    *result
	digest string
}

// loop regenerates the figure until budget seconds have passed (at least
// min times). It returns every regeneration that ran to completion; one
// whose digest is wrong is among them but counted as failed.
func (sr *simRun) loop(traced bool, budget float64, min int) []regen {
	var out []regen
	start := time.Now()
	for len(out) < min || time.Since(start).Seconds()+out[len(out)-1].wall.Seconds()/2 < budget {
		r := sr.w.regenerate(sr.exp, sr.seed, 1, traced)
		sr.res.Attempted++
		if !sr.check(r) {
			sr.res.Failed++
		}
		if r.err != nil {
			// A failed regeneration has no timing; stop rather than
			// spin on a broken build.
			break
		}
		out = append(out, r)
	}
	return out
}

func (sr *simRun) check(r regen) bool {
	if r.err != nil {
		fmt.Println("# regeneration failed:", r.err)
		return false
	}
	if sr.digest == "" {
		sr.digest = r.digest
	}
	if want := recordedDigests[sr.w.name]; sr.seed >= 0 && sr.seed <= recordedSeeds && r.digest != want {
		fmt.Printf("# digest %s, recorded for seed %d: %s\n", r.digest, sr.seed, want)
		return false
	}
	if r.digest != sr.digest {
		fmt.Printf("# digest %s differs from the run's first %s\n", r.digest, sr.digest)
		return false
	}
	return true
}

func (w simWorkload) run(o options) (*result, error) {
	exp, ok := core.Lookup(w.experiment)
	if !ok {
		return nil, fmt.Errorf("experiment %s not registered", w.experiment)
	}
	res := &result{Correct: true}
	sr := &simRun{w: w, exp: exp, seed: o.seed, res: res}

	// Set-up: build a suite and regenerate the figure at an eighth of the
	// scale, which also warms the heap before timing.
	setups := 5
	if o.trace {
		setups = 1
	}
	var setup []float64
	for i := 0; i < setups; i++ {
		r := w.regenerate(exp, o.seed, 8, false)
		if r.err != nil {
			return nil, fmt.Errorf("set-up: %w", r.err)
		}
		setup = append(setup, r.wall.Seconds())
	}

	ops := float64(w.ops())
	if !o.trace {
		rs := sr.loop(false, o.seconds, 3)
		if len(rs) == 0 {
			res.Correct = false
			return res, nil
		}
		var walls, cpus, p50s, p99s []float64
		for _, r := range rs {
			walls = append(walls, r.wall.Seconds())
			cpus = append(cpus, r.cpu.Seconds())
			p50s = append(p50s, weightedQuantile(r.perOp, 0.5))
			p99s = append(p99s, weightedQuantile(r.perOp, 0.99))
		}
		wall, cpu := median(walls), median(cpus)
		res.set("setup_s", "s", median(setup))
		res.set("wall_s", "s", wall)
		res.set("cpu_s", "s", cpu)
		res.set("peak_rss_mb", "MB", peakRSSMB())
		res.set("ops_per_s", "1/s", ops/wall)
		res.set("cpu_us_per_op", "us", cpu*1e6/ops)
		res.set("lat_p50_us", "us", median(p50s))
		res.set("lat_p99_us", "us", median(p99s))
		fmt.Printf("# %s: %d regenerations of %s, %d storage ops each, wall s %.3f, set-up s %.3f\n",
			w.name, len(rs), w.experiment, w.ops(), walls, setup)
		return res, nil
	}

	// Traced: an untraced baseline, then regenerations with the operation
	// log attached under a CPU profile, then the engine-direct replay.
	base := sr.loop(false, 0.4*o.seconds, 2)
	var prof bytes.Buffer
	rt0 := readRuntime()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	traced := sr.loop(true, 0.4*o.seconds, 2)
	pprof.StopCPUProfile()
	rt1 := readRuntime()
	if len(base) == 0 || len(traced) == 0 {
		res.Correct = false
		return res, nil
	}
	for _, r := range traced[1:] {
		if r.ops != traced[0].ops || r.retries != traced[0].retries || r.busy != traced[0].busy {
			fmt.Printf("# cloud counts differ between traced regenerations: %+v vs %+v\n", r, traced[0])
			res.Failed++
		}
	}
	if err := setCPUFractions(res, prof.Bytes()); err != nil {
		return nil, err
	}
	var baseWalls, tracedWalls []float64
	for _, r := range base {
		baseWalls = append(baseWalls, r.wall.Seconds())
	}
	for _, r := range traced {
		tracedWalls = append(tracedWalls, r.wall.Seconds())
	}
	res.set("trace.overhead_frac", "ratio", median(tracedWalls)/median(baseWalls)-1)
	n := float64(len(traced))
	setRuntime(res, rt0, rt1, n*ops, n)
	res.set("cloud.ops", "count", float64(traced[0].ops))
	res.set("cloud.retries", "count", float64(traced[0].retries))
	res.set("cloud.busy_rejects", "count", float64(traced[0].busy))
	setLiveLayers(res, nil)
	er := w.engine(o.seed)
	res.Attempted += er.attempted
	res.Failed += er.failed
	setEngine(res, er)
	return res, nil
}

// setCPUFractions attributes a CPU profile to layers.
func setCPUFractions(res *result, prof []byte) error {
	samples, err := decodeProfile(prof)
	if err != nil {
		return err
	}
	fr, total := cpuFractions(samples)
	for _, l := range layers {
		res.set(l+".cpu_frac", "ratio", fr[l])
	}
	fmt.Printf("# cpu profile: %d samples\n", total)
	return nil
}

// setRuntime reports runtime/metrics deltas over the traced interval:
// allocations per storage op and GC cycles per work unit.
func setRuntime(res *result, before, after runtimeSample, ops, units float64) {
	res.set("runtime.alloc_bytes_per_op", "B", float64(after.allocBytes-before.allocBytes)/ops)
	res.set("runtime.allocs_per_op", "count", float64(after.allocObjects-before.allocObjects)/ops)
	res.set("runtime.gc_cycles", "count", float64(after.gcCycles-before.gcCycles)/units)
	res.set("runtime.sched_wait_p99_us", "us", schedWaitP99(before, after))
}
