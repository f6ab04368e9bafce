package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// latHist is a log-linear latency histogram: exact below 128 ns, then 64
// sub-buckets per power of two, so neighbouring bucket edges are under
// 1.6% apart. Its memory is fixed however many calls a run makes, which
// keeps the benchmark's own bookkeeping out of peak_rss_mb.
type latHist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSub     = 64
	histMaxLen  = 35 // durations of 2^35 ns (34 s) and longer share the top bucket
	histBuckets = histSub*(histMaxLen-6) + histSub
)

func histBucket(d time.Duration) int {
	v := uint64(max(d, 0))
	l := bits.Len64(v)
	if l <= 7 {
		return int(v)
	}
	if l > histMaxLen {
		return histBuckets - 1
	}
	s := l - 7
	return histSub*s + int(v>>s)
}

// histBounds is bucket i's range [lo, hi) in nanoseconds.
func histBounds(i int) (lo, hi float64) {
	if i < 2*histSub {
		return float64(i), float64(i + 1)
	}
	s := i/histSub - 1
	m := i%histSub + histSub
	return float64(m << s), float64((m + 1) << s)
}

func (h *latHist) add(d time.Duration) {
	h.counts[histBucket(d)]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in microseconds, interpolated linearly
// within its bucket; 0 when empty.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < seen+float64(c) {
			lo, hi := histBounds(i)
			return (lo + (hi-lo)*(rank-seen+0.5)/float64(c)) / 1e3
		}
		seen += float64(c)
	}
	return 0
}

// runtimeSample is a snapshot of the runtime/metrics the traced run
// reports as deltas.
type runtimeSample struct {
	allocBytes, allocObjects, gcCycles uint64
	schedLat                           *metrics.Float64Histogram
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var s runtimeSample
	if ms[0].Value.Kind() == metrics.KindUint64 {
		s.allocBytes = ms[0].Value.Uint64()
	}
	if ms[1].Value.Kind() == metrics.KindUint64 {
		s.allocObjects = ms[1].Value.Uint64()
	}
	if ms[2].Value.Kind() == metrics.KindUint64 {
		s.gcCycles = ms[2].Value.Uint64()
	}
	if ms[3].Value.Kind() == metrics.KindFloat64Histogram {
		s.schedLat = ms[3].Value.Float64Histogram()
	}
	return s
}

// schedWaitP99 returns the 99th percentile, in microseconds, of the
// goroutine scheduling latencies observed between two samples: the upper
// edge of the histogram bucket that holds it (its lower edge for the
// open-ended last bucket).
func schedWaitP99(before, after runtimeSample) float64 {
	if before.schedLat == nil || after.schedLat == nil {
		return 0
	}
	counts := make([]uint64, len(after.schedLat.Counts))
	var total uint64
	for i, c := range after.schedLat.Counts {
		if i < len(before.schedLat.Counts) {
			c -= before.schedLat.Counts[i]
		}
		counts[i] = c
		total += c
	}
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= need {
			edge := after.schedLat.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = after.schedLat.Buckets[i]
			}
			return edge * 1e6
		}
	}
	return 0
}

// stamp describes where a result was measured, so results from different
// machines or code are never compared: Go version, GOMAXPROCS, CPU count,
// CPU model and the code's identity (the git commit when the checkout has
// one, and always a digest of the module's Go sources).
func stamp() string {
	return fmt.Sprintf("env go=%s gomaxprocs=%d nproc=%d cpu=%q commit=%s source=%s",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), gitCommit(".."), sourceDigest(".."))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from root's .git directory without running git;
// "none" when root is not a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "none"
}

// sourceDigest hashes every .go file and go.mod under root (paths and
// contents, in walk order), skipping hidden directories such as the build
// cache.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
