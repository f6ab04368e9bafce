package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // innermost first
		want  string
	}{
		{"innermost internal frame wins",
			[]string{"runtime.memmove", "azurebench/internal/payload.Payload.render", "azurebench/internal/queuestore.(*Store).Put", "azurebench/internal/cloud.(*Client).do"},
			"payload"},
		{"channel park under sim.(*Proc).park counts as sim",
			[]string{"runtime.chanrecv", "runtime.chanrecv1", "azurebench/internal/sim.(*Proc).park", "azurebench/internal/core.(*Suite).runTablePoint.func2"},
			"sim"},
		{"closure of an internal package",
			[]string{"azurebench/internal/core.(*Suite).runQueuePerWorkerPoint.func1.1"},
			"core"},
		{"module without a layer of its own defers to its caller",
			[]string{"azurebench/internal/vclock.Real.Now", "azurebench/internal/queuestore.(*Store).reap"},
			"queuestore"},
		{"only a non-layer internal module",
			[]string{"azurebench/internal/metrics.(*Histogram).Observe", "runtime.goexit"},
			"runtime.other"},
		{"GC assist under an engine counts as the engine",
			[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "azurebench/internal/tablestore.(*Entity).Clone"},
			"tablestore"},
		{"benchmark's own code",
			[]string{"bytes.Equal", "main.(*liveClient).run", "runtime.goexit"},
			"bench"},
		{"net/http with no internal frame",
			[]string{"syscall.Syscall", "net.(*conn).Write", "net/http.(*persistConn).writeLoop"},
			"nethttp"},
		{"net/http subpackage",
			[]string{"net/http/internal.(*chunkedWriter).Write"},
			"nethttp"},
		{"background mark worker",
			[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"},
			"runtime.gc"},
		{"GC assist with no internal frame",
			[]string{"runtime.scanobject", "runtime.gcAssistAlloc1", "runtime.gcAssistAlloc.func2"},
			"runtime.gc"},
		{"sweeper",
			[]string{"runtime.sweepone", "runtime.bgsweep"},
			"runtime.gc"},
		{"scheduler",
			[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"},
			"runtime.sched"},
		{"anything else",
			[]string{"runtime.sysmon", "runtime.mstart1"},
			"runtime.other"},
		{"empty stack", nil, "runtime.other"},
		{"look-alike prefix is not internal",
			[]string{"azurebench/internalx.F", "runtime.goexit"},
			"runtime.other"},
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("%s: classify = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCPUFractionsSumToOne(t *testing.T) {
	samples := []stackSample{
		{[]string{"azurebench/internal/queuestore.(*Store).reap"}, 70},
		{[]string{"runtime.chanrecv", "azurebench/internal/sim.(*Proc).park"}, 10},
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, 5},
		{[]string{"runtime.findRunnable", "runtime.schedule"}, 5},
		{[]string{"net/http.(*conn).serve"}, 4},
		{[]string{"main.main"}, 3},
		{[]string{"runtime.sysmon"}, 3},
	}
	fr, total := cpuFractions(samples)
	if total != 100 {
		t.Fatalf("total = %d, want 100", total)
	}
	if len(fr) != len(layers) {
		t.Fatalf("got %d layers, want every one of %d", len(fr), len(layers))
	}
	sum := 0.0
	for _, f := range fr {
		sum += f
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("fractions sum to %v, want 1", sum)
	}
	want := map[string]float64{"queuestore": 0.70, "sim": 0.10, "runtime.gc": 0.05, "runtime.sched": 0.05,
		"nethttp": 0.04, "bench": 0.03, "runtime.other": 0.03}
	for l, w := range want {
		if math.Abs(fr[l]-w) > 1e-12 {
			t.Errorf("%s = %v, want %v", l, fr[l], w)
		}
	}
	if empty, n := cpuFractions(nil); n != 0 || empty["sim"] != 0 {
		t.Errorf("no samples: total %d, sim %v; want 0, 0", n, empty["sim"])
	}
}

// spin burns CPU in a function the test can find in the profile.
//
//go:noinline
func spin(d time.Duration) uint64 {
	var x uint64
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 10000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestDecodeRuntimeProfile decodes a profile written by runtime/pprof and
// checks the CPU-burning function is found and attributed to bench.
func TestDecodeRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var spinning int64
	for _, s := range samples {
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spin") {
				spinning += s.count
				break
			}
		}
	}
	if spinning == 0 {
		t.Fatalf("no sample in spin among %d stacks", len(samples))
	}
	fr, _ := cpuFractions(samples)
	if fr["bench"] < 0.5 {
		t.Errorf("bench fraction %v, want most samples", fr["bench"])
	}
}

// TestDecodeProfileEncodings feeds a hand-encoded profile using both
// packed and unpacked repeated fields and an inlined location.
func TestDecodeProfileEncodings(t *testing.T) {
	var p []byte
	field := func(dst []byte, num int, wire int) []byte { return binary.AppendUvarint(dst, uint64(num<<3|wire)) }
	varint := func(dst []byte, num int, v uint64) []byte { return binary.AppendUvarint(field(dst, num, 0), v) }
	bytesField := func(dst []byte, num int, b []byte) []byte {
		return append(binary.AppendUvarint(field(dst, num, 2), uint64(len(b))), b...)
	}
	packed := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	// Sample 1: packed locations [1, 2], packed values [3, 30000000].
	p = bytesField(p, 2, bytesField(bytesField(nil, 1, packed(1, 2)), 2, packed(3, 30000000)))
	// Sample 2: one unpacked location 2, unpacked values 4, 40000000.
	p = bytesField(p, 2, varint(varint(varint(nil, 1, 2), 2, 4), 2, 40000000))
	// Location 1 holds an inlined call: function 1 inlined into function 2.
	line := func(fn uint64) []byte { return varint(nil, 1, fn) }
	p = bytesField(p, 4, bytesField(bytesField(varint(nil, 1, 1), 4, line(1)), 4, line(2)))
	// Location 2: function 3.
	p = bytesField(p, 4, bytesField(varint(nil, 1, 2), 4, line(3)))
	for id, name := range []uint64{1, 2, 3} {
		p = bytesField(p, 5, varint(varint(nil, 1, uint64(id+1)), 2, name))
	}
	for _, s := range []string{"", "azurebench/internal/payload.Payload.render", "azurebench/internal/blobstore.(*Store).Download", "main.main"} {
		p = bytesField(p, 6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()

	samples, err := decodeProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("got %d samples, want 2", len(samples))
	}
	if got := strings.Join(samples[0].stack, " < "); got != "azurebench/internal/payload.Payload.render < azurebench/internal/blobstore.(*Store).Download < main.main" {
		t.Errorf("sample 0 stack %q", got)
	}
	if samples[0].count != 3 || samples[1].count != 4 || len(samples[1].stack) != 1 {
		t.Errorf("samples = %+v", samples)
	}
	if _, err := decodeProfile(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}
