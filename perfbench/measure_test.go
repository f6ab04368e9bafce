package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestLatHistQuantile(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var h latHist
	var exact []float64
	for i := 0; i < 100000; i++ {
		d := time.Duration(math.Exp(r.NormFloat64() + 12)) // log-normal around 160 us
		h.add(d)
		exact = append(exact, float64(d)/1e3)
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.01, 0.5, 0.99, 0.999} {
		want := exact[int(q*float64(len(exact)-1))]
		if got := h.quantile(q); math.Abs(got-want)/want > 0.016 {
			t.Errorf("q%.3f = %.2f us, want %.2f us within 1.6%%", q, got, want)
		}
	}
	for _, d := range []time.Duration{0, 1, 127, 128, 255, 256, 1 << 20, 1<<35 - 1} {
		lo, hi := histBounds(histBucket(d))
		if float64(d) < lo || float64(d) >= hi {
			t.Errorf("%d ns in bucket [%v, %v)", d, lo, hi)
		}
	}
	if b := histBucket(time.Hour); b != histBuckets-1 {
		t.Errorf("an hour lands in bucket %d, want the top one %d", b, histBuckets-1)
	}
	var empty latHist
	if empty.quantile(0.5) != 0 {
		t.Error("empty histogram quantile != 0")
	}
}
