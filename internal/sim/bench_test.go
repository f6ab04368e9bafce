package sim

import (
	"testing"
	"time"
)

// BenchmarkEventThroughput measures raw kernel speed: how many
// schedule-sleep-wake cycles per second the DES sustains. This bounds how
// fast paper-scale experiments regenerate.
func BenchmarkEventThroughput(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv(1)
	e.Go("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkResourceContention measures kernel performance under FIFO
// queueing: 16 processes contending for a capacity-1 resource.
func BenchmarkResourceContention(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv(1)
	r := NewResource(e, "srv", 1)
	per := b.N/16 + 1
	for w := 0; w < 16; w++ {
		e.Go("w", func(p *Proc) {
			for i := 0; i < per; i++ {
				r.Use(p, time.Microsecond)
			}
		})
	}
	b.ResetTimer()
	e.Run()
}

func BenchmarkRandUint64(b *testing.B) {
	r := NewRand(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

// BenchmarkSignalBroadcast measures Signal wakes: one firer releases 64
// waiters per round, and the waiters wait again on the next round's
// signal. One op is one waiter woken.
func BenchmarkSignalBroadcast(b *testing.B) {
	b.ReportAllocs()
	const waiters = 64
	e := NewEnv(1)
	rounds := b.N/waiters + 1
	sigs := make([]*Signal, rounds)
	for i := range sigs {
		sigs[i] = NewSignal(e)
	}
	for w := 0; w < waiters; w++ {
		e.Go("waiter", func(p *Proc) {
			for _, s := range sigs {
				s.Wait(p)
			}
		})
	}
	e.Go("firer", func(p *Proc) {
		for _, s := range sigs {
			p.Sleep(time.Microsecond)
			s.Fire()
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkStoreHandoff measures Store wakes: a producer and a consumer
// ping-pong one item each way through two stores, so every Put hands the
// item to a parked Get. One op is one handoff.
func BenchmarkStoreHandoff(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv(1)
	ping := NewStore[int](e, "ping")
	pong := NewStore[int](e, "pong")
	n := b.N/2 + 1
	e.Go("consumer", func(p *Proc) {
		for i := 0; i < n; i++ {
			pong.Put(ping.Get(p))
		}
	})
	e.Go("producer", func(p *Proc) {
		for i := 0; i < n; i++ {
			ping.Put(i)
			pong.Get(p)
		}
	})
	b.ResetTimer()
	e.Run()
}
