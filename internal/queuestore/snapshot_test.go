package queuestore

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"azurebench/internal/payload"
	snap "azurebench/internal/snapshot"
	"azurebench/internal/storecommon"
	"azurebench/internal/vclock"
)

// snapshotFixture builds a non-FIFO store with two queues: "snapq"
// holds six week-long messages, two of them dequeued, and one message
// with a one-minute TTL; "snapq-empty" has none.
func snapshotFixture(t *testing.T) (*Store, *vclock.Manual, []Message) {
	t.Helper()
	clk := &vclock.Manual{}
	s := NewWithConfig(clk, Config{NonFIFOWindow: 4, Seed: 11})
	for _, q := range []string{"snapq", "snapq-empty"} {
		if err := s.CreateQueue(q); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		if _, err := s.Put("snapq", payload.Synthetic(uint64(i), 64), 0); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second)
	}
	if _, err := s.Put("snapq", payload.String("short"), time.Minute); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("snapq", 2, time.Hour)
	if err != nil || len(got) != 2 {
		t.Fatalf("Get = %v, %v", got, err)
	}
	return s, clk, got
}

func restore(t *testing.T, clk vclock.Clock, saved []byte) *Store {
	t.Helper()
	s := NewWithConfig(clk, Config{NonFIFOWindow: 4, Seed: 99})
	if err := s.Load(snap.NewReader(saved)); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSnapshotRoundTripIsByteIdentical(t *testing.T) {
	s, clk, _ := snapshotFixture(t)
	saved := saveBytes(s)
	if again := saveBytes(restore(t, clk, saved)); !bytes.Equal(saved, again) {
		t.Fatal("Save → Load → Save changed the bytes")
	}
}

func TestSnapshotRestoredStoreFindsMessagesByID(t *testing.T) {
	s, clk, dequeued := snapshotFixture(t)
	peeked, err := s.Peek("snapq", 32)
	if err != nil || len(peeked) != 5 {
		t.Fatalf("Peek = %d messages, %v", len(peeked), err)
	}
	r := restore(t, clk, saveBytes(s))

	if err := r.Delete("snapq", dequeued[0].ID, dequeued[0].PopReceipt); err != nil {
		t.Fatalf("Delete after Load: %v", err)
	}
	upd, err := r.Update("snapq", dequeued[1].ID, dequeued[1].PopReceipt, payload.String("updated"), time.Second)
	if err != nil || upd.ID != dequeued[1].ID {
		t.Fatalf("Update after Load = %+v, %v", upd, err)
	}
	if err := r.ReplicaDelete("snapq", peeked[0].ID); err != nil {
		t.Fatalf("ReplicaDelete after Load: %v", err)
	}
	if err := r.ReplicaUpdate("snapq", peeked[1].ID, payload.String("replica")); err != nil {
		t.Fatalf("ReplicaUpdate after Load: %v", err)
	}
	after, err := r.Peek("snapq", 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range after {
		if m.ID == peeked[0].ID {
			t.Fatalf("ReplicaDelete left %s behind", m.ID)
		}
		if m.ID == peeked[1].ID && !payload.Equal(m.Body, payload.String("replica")) {
			t.Fatalf("ReplicaUpdate did not replace the body of %s", m.ID)
		}
	}
	if n, _ := r.ApproximateCount("snapq"); n != 5 {
		t.Fatalf("count after two deletes = %d, want 5", n)
	}
	if err := r.Delete("snapq", "snapq-msg-007", "pr-1"); storecommon.CodeOf(err) != storecommon.CodeMessageNotFound {
		t.Fatalf("non-canonical ID = %v, want MessageNotFound", err)
	}
}

func TestSnapshotRestoredStoreExpiresAndContinuesIDs(t *testing.T) {
	s, clk, _ := snapshotFixture(t)
	r := restore(t, clk, saveBytes(s))

	// The short message went in at 6 s with a one-minute TTL.
	clk.Set(65 * time.Second)
	if n, _ := r.ApproximateCount("snapq"); n != 7 {
		t.Fatalf("count before expiry = %d, want 7", n)
	}
	clk.Set(66 * time.Second)
	if n, _ := r.ApproximateCount("snapq"); n != 6 {
		t.Fatalf("count at expiry = %d, want 6", n)
	}
	m, err := r.Put("snapq", payload.String("next"), 0)
	if err != nil || m.ID != "snapq-msg-8" {
		t.Fatalf("Put after Load = %q, %v; want snapq-msg-8", m.ID, err)
	}
	if m, err := r.Put("snapq-empty", payload.String("first"), 0); err != nil || m.ID != "snapq-empty-msg-1" {
		t.Fatalf("Put to the empty queue after Load = %q, %v", m.ID, err)
	}
}

// TestSnapshotLoadRejectsOutOfSequenceIDs hand-writes queue sections whose
// message IDs Put could not have made, in that order, for that queue.
func TestSnapshotLoadRejectsOutOfSequenceIDs(t *testing.T) {
	for _, tc := range []struct {
		name string
		ids  []string
	}{
		{"foreign", []string{"other-msg-1"}},
		{"non-numeric", []string{"badq-msg-x"}},
		{"non-canonical", []string{"badq-msg-01"}},
		{"beyond-next", []string{"badq-msg-9"}},
		{"descending", []string{"badq-msg-2", "badq-msg-1"}},
		{"duplicate", []string{"badq-msg-1", "badq-msg-1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var w snap.Writer
			w.U64(1) // rng state
			w.U64(0) // pop sequence
			w.Int(1) // queues
			w.String("badq")
			w.Time(vclock.Epoch)
			w.Int(0) // metadata
			w.U64(3) // next ID
			w.Int(len(tc.ids))
			for _, id := range tc.ids {
				w.String(id)
				payload.String("b").Save(&w)
				w.Time(vclock.Epoch)
				w.Time(vclock.Epoch.Add(time.Hour))
				w.Time(vclock.Epoch)
				w.Int(0)
				w.String("")
			}
			s := New(&vclock.Manual{})
			if err := s.Load(snap.NewReader(w.Bytes())); !errors.Is(err, snap.ErrCorrupt) {
				t.Fatalf("Load = %v, want ErrCorrupt", err)
			}
		})
	}
}
