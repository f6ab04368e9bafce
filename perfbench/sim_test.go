package main

import (
	"testing"

	"azurebench/internal/core"
)

// TestRegenerateMatchesWholeRun checks that running a figure point by
// point and merging the points gives the digest of running the whole
// figure at once.
func TestRegenerateMatchesWholeRun(t *testing.T) {
	for _, w := range []simWorkload{simQueueDeep, simTableCRUD} {
		exp, ok := core.Lookup(w.experiment)
		if !ok {
			t.Fatalf("%s not registered", w.experiment)
		}
		r := w.regenerate(exp, 4, 8, false)
		if r.err != nil {
			t.Fatal(r.err)
		}
		cfg := w.config(4, w.workers[0], w.sizesKB[0], 8)
		cfg.Workers, cfg.QueueSizesKB, cfg.TableSizesKB = w.workers, w.sizesKB, w.sizesKB
		if want := exp.Run(core.NewSuite(cfg)).CSVDigest(); r.digest != want {
			t.Errorf("%s: point-by-point digest %s, whole run %s", w.name, r.digest, want)
		}
		if len(r.perOp) != len(w.workers)*len(w.sizesKB) {
			t.Errorf("%s: %d point timings, want one per point", w.name, len(r.perOp))
		}
	}
}

func TestWeightedQuantile(t *testing.T) {
	xs := []weighted{{v: 80, w: 1}, {v: 20, w: 98}, {v: 50, w: 1}}
	for _, c := range []struct{ q, want float64 }{{0.5, 20}, {0.98, 20}, {0.99, 50}, {1, 80}} {
		if got := weightedQuantile(xs, c.q); got != c.want {
			t.Errorf("q%v = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0].v != 80 {
		t.Error("weightedQuantile reordered its argument")
	}
}
