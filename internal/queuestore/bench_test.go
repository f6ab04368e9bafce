package queuestore

import (
	"fmt"
	"testing"
	"time"

	"azurebench/internal/payload"
	"azurebench/internal/vclock"
)

func BenchmarkPutGetDeleteCycle(b *testing.B) {
	s := New(vclock.Real{})
	if err := s.CreateQueue("bench"); err != nil {
		b.Fatal(err)
	}
	body := payload.Synthetic(1, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Put("bench", body, 0); err != nil {
			b.Fatal(err)
		}
		msg, ok, err := s.GetOne("bench", time.Minute)
		if err != nil || !ok {
			b.Fatal("get failed")
		}
		if err := s.Delete("bench", msg.ID, msg.PopReceipt); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDepths are the queue depths of the deep-queue sweeps. Per-op cost
// should be flat across them.
var benchDepths = []int{100, 1_000, 10_000, 100_000}

// deepQueue returns a store whose queue "bench" holds depth messages.
func deepQueue(b *testing.B, cfg Config, depth int) *Store {
	b.Helper()
	s := NewWithConfig(vclock.Real{}, cfg)
	if err := s.CreateQueue("bench"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < depth; i++ {
		if _, err := s.Put("bench", payload.Zero(64), 0); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

func BenchmarkPeekWithDeepQueue(b *testing.B) {
	for _, depth := range benchDepths {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			s := deepQueue(b, Config{}, depth)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok, err := s.PeekOne("bench"); err != nil || !ok {
					b.Fatal("peek failed")
				}
			}
		})
	}
}

// BenchmarkGetDeleteDeepQueue dequeues and deletes from a non-FIFO queue,
// putting a message back each time so the depth holds.
func BenchmarkGetDeleteDeepQueue(b *testing.B) {
	for _, depth := range benchDepths {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			s := deepQueue(b, Config{NonFIFOWindow: 4, Seed: 1}, depth)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				msg, ok, err := s.GetOne("bench", time.Minute)
				if err != nil || !ok {
					b.Fatal("get failed")
				}
				if err := s.Delete("bench", msg.ID, msg.PopReceipt); err != nil {
					b.Fatal(err)
				}
				if _, err := s.Put("bench", payload.Zero(64), 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkApproximateCount(b *testing.B) {
	for _, depth := range benchDepths {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			s := deepQueue(b, Config{}, depth)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.ApproximateCount("bench"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
