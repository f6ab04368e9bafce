package queuestore

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"azurebench/internal/payload"
	"azurebench/internal/sim"
	snap "azurebench/internal/snapshot"
	"azurebench/internal/storecommon"
	"azurebench/internal/vclock"
)

// TestDifferentialAgainstLinearScanEngine drives Store and refStore (the
// linear-scan engine it replaced) in lockstep with seeded random ops over
// every method. After every step both must return the same messages and
// errors and Save the same bytes, which pins delivery order, pop receipts
// and the non-FIFO PRNG draws. Now and then Store is swapped for a copy
// restored from its own snapshot, so Load's rebuilt state is driven too.
func TestDifferentialAgainstLinearScanEngine(t *testing.T) {
	for _, window := range []int{1, 4} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("window=%d/seed=%d", window, seed), func(t *testing.T) {
				runDifferential(t, Config{NonFIFOWindow: window, Seed: seed}, 1500)
			})
		}
	}
}

type saver interface{ Save(w *snap.Writer) }

func saveBytes(s saver) []byte {
	var w snap.Writer
	s.Save(&w)
	return w.Bytes()
}

func runDifferential(t *testing.T, cfg Config, steps int) {
	clk := &vclock.Manual{}
	got := NewWithConfig(clk, cfg)
	want := newRefStore(clk, cfg)
	rnd := sim.NewRand(cfg.Seed*7919 + int64(cfg.NonFIFOWindow))

	queues := []string{"diffq-a", "diffq-b"}
	type msgRef struct{ queue, id string }
	var seen []msgRef
	receipts := map[string]string{}
	remember := func(queue string, msgs ...Message) {
		for _, m := range msgs {
			seen = append(seen, msgRef{queue, m.ID})
			if m.PopReceipt != "" {
				receipts[m.ID] = m.PopReceipt
			}
		}
	}

	var desc string
	check := func(g, w any, gerr, werr error) {
		t.Helper()
		if storecommon.CodeOf(gerr) != storecommon.CodeOf(werr) || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("%s: error %v, reference %v", desc, gerr, werr)
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: got %+v, reference %+v", desc, g, w)
		}
	}
	pickQueue := func() string {
		if rnd.Intn(20) == 0 {
			return "diffq-missing"
		}
		return queues[rnd.Intn(len(queues))]
	}
	// pickID returns an ID this run has seen (possibly of the other queue,
	// deleted, or from before the queue was recreated) or a foreign or
	// malformed one.
	pickID := func(queue string) string {
		if len(seen) > 0 && rnd.Intn(4) != 0 {
			return seen[rnd.Intn(len(seen))].id
		}
		foreign := []string{"other-msg-3", "x", queue + "-msg-", "", queue + "-msg-007", queue + "-msg--1", queue + "-msg-99999999999999999999"}
		return foreign[rnd.Intn(len(foreign))]
	}
	pickReceipt := func(id string) string {
		switch rnd.Intn(8) {
		case 0:
			return ""
		case 1:
			return "pr-1"
		}
		return receipts[id]
	}
	durations := func(ds ...time.Duration) time.Duration { return ds[rnd.Intn(len(ds))] }

	for _, q := range queues {
		check(nil, nil, got.CreateQueue(q), want.CreateQueue(q))
	}
	for step := 0; step < steps; step++ {
		q := pickQueue()
		switch op := rnd.Intn(17); {
		case op < 4:
			body := payload.String(fmt.Sprintf("m%d", step))
			ttl := durations(0, 20*time.Second, 90*time.Second, 5*time.Minute, -time.Second)
			desc = fmt.Sprintf("step %d: Put(%s, ttl %v)", step, q, ttl)
			g, gerr := got.Put(q, body, ttl)
			w, werr := want.Put(q, body, ttl)
			check(g, w, gerr, werr)
			remember(q, g)
		case op < 6:
			max := 1 + rnd.Intn(5)
			vis := durations(0, 5*time.Second, 40*time.Second, -time.Second)
			desc = fmt.Sprintf("step %d: Get(%s, %d, %v)", step, q, max, vis)
			g, gerr := got.Get(q, max, vis)
			w, werr := want.Get(q, max, vis)
			check(g, w, gerr, werr)
			remember(q, g...)
		case op < 7:
			max := 1 + rnd.Intn(5)
			desc = fmt.Sprintf("step %d: Peek(%s, %d)", step, q, max)
			g, gerr := got.Peek(q, max)
			w, werr := want.Peek(q, max)
			check(g, w, gerr, werr)
		case op < 9:
			id := pickID(q)
			pr := pickReceipt(id)
			desc = fmt.Sprintf("step %d: Delete(%s, %q, %q)", step, q, id, pr)
			check(nil, nil, got.Delete(q, id, pr), want.Delete(q, id, pr))
		case op < 10:
			id := pickID(q)
			pr := pickReceipt(id)
			body := payload.String(fmt.Sprintf("u%d", step))
			vis := durations(0, 10*time.Second)
			desc = fmt.Sprintf("step %d: Update(%s, %q, %q, %v)", step, q, id, pr, vis)
			g, gerr := got.Update(q, id, pr, body, vis)
			w, werr := want.Update(q, id, pr, body, vis)
			check(g, w, gerr, werr)
			if gerr == nil {
				remember(q, g)
			}
		case op < 11:
			id := pickID(q)
			desc = fmt.Sprintf("step %d: ReplicaDelete(%s, %q)", step, q, id)
			check(nil, nil, got.ReplicaDelete(q, id), want.ReplicaDelete(q, id))
		case op < 12:
			id := pickID(q)
			body := payload.String(fmt.Sprintf("r%d", step))
			desc = fmt.Sprintf("step %d: ReplicaUpdate(%s, %q)", step, q, id)
			check(nil, nil, got.ReplicaUpdate(q, id, body), want.ReplicaUpdate(q, id, body))
		case op < 13:
			desc = fmt.Sprintf("step %d: ApproximateCount(%s)", step, q)
			g, gerr := got.ApproximateCount(q)
			w, werr := want.ApproximateCount(q)
			check(g, w, gerr, werr)
		case op < 15:
			d := durations(time.Second, 10*time.Second, 35*time.Second, 2*time.Minute)
			desc = fmt.Sprintf("step %d: advance %v", step, d)
			clk.Advance(d)
		case op < 16:
			switch rnd.Intn(6) {
			case 0:
				desc = fmt.Sprintf("step %d: ClearMessages(%s)", step, q)
				check(nil, nil, got.ClearMessages(q), want.ClearMessages(q))
			case 1:
				desc = fmt.Sprintf("step %d: recreate %s", step, q)
				check(nil, nil, got.DeleteQueue(q), want.DeleteQueue(q))
				check(nil, nil, got.CreateQueue(q), want.CreateQueue(q))
			}
		default:
			desc = fmt.Sprintf("step %d: Save/Load", step)
			restored := NewWithConfig(clk, cfg)
			if err := restored.Load(snap.NewReader(saveBytes(got))); err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			got = restored
		}
		if g, w := saveBytes(got), saveBytes(want); !bytes.Equal(g, w) {
			t.Fatalf("%s: Save bytes differ from the reference's", desc)
		}
	}
}
