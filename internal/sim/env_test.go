package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEnv(1)
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEnv(1)
	var at time.Duration
	e.Go("p", func(p *Proc) {
		p.Sleep(5 * time.Second)
		at = p.Now()
	})
	e.Run()
	if at != 5*time.Second {
		t.Fatalf("woke at %v, want 5s", at)
	}
	if e.Now() != 5*time.Second {
		t.Fatalf("final time %v, want 5s", e.Now())
	}
}

func TestSleepNegativeTreatedAsZero(t *testing.T) {
	e := NewEnv(1)
	ok := false
	e.Go("p", func(p *Proc) {
		p.Sleep(-time.Second)
		ok = true
	})
	e.Run()
	if !ok {
		t.Fatal("process did not resume after negative sleep")
	}
	if e.Now() != 0 {
		t.Fatalf("time advanced to %v on negative sleep", e.Now())
	}
}

func TestEventOrderingSameInstantFIFO(t *testing.T) {
	e := NewEnv(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			order = append(order, i)
		})
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestInterleavingByTimestamp(t *testing.T) {
	e := NewEnv(1)
	var trace []string
	e.Go("a", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(2 * time.Second)
			trace = append(trace, fmt.Sprintf("a@%v", p.Now()))
		}
	})
	e.Go("b", func(p *Proc) {
		for i := 0; i < 2; i++ {
			p.Sleep(3 * time.Second)
			trace = append(trace, fmt.Sprintf("b@%v", p.Now()))
		}
	})
	e.Run()
	// At t=6s both wake; b's wake event was scheduled first (at t=3s vs
	// t=4s), so b runs first under schedule-order tie-breaking.
	want := []string{"a@2s", "b@3s", "a@4s", "b@6s", "a@6s"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestGoAtSchedulesInFuture(t *testing.T) {
	e := NewEnv(1)
	var started time.Duration
	e.GoAt(7*time.Second, "late", func(p *Proc) {
		started = p.Now()
	})
	e.Run()
	if started != 7*time.Second {
		t.Fatalf("started at %v, want 7s", started)
	}
}

func TestJoin(t *testing.T) {
	e := NewEnv(1)
	var joinedAt time.Duration
	worker := e.Go("worker", func(p *Proc) {
		p.Sleep(10 * time.Second)
	})
	e.Go("waiter", func(p *Proc) {
		p.Join(worker)
		joinedAt = p.Now()
	})
	e.Run()
	if joinedAt != 10*time.Second {
		t.Fatalf("joined at %v, want 10s", joinedAt)
	}
	if !worker.Ended() {
		t.Fatal("worker not marked ended")
	}
}

func TestJoinFinishedProcessReturnsImmediately(t *testing.T) {
	e := NewEnv(1)
	worker := e.Go("worker", func(p *Proc) {})
	var joined bool
	e.GoAt(time.Second, "waiter", func(p *Proc) {
		p.Join(worker)
		joined = true
	})
	e.Run()
	if !joined {
		t.Fatal("join on finished process did not return")
	}
}

func TestRunUntilStopsEarly(t *testing.T) {
	e := NewEnv(1)
	var wokeTimes []time.Duration
	e.Go("p", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(time.Second)
			wokeTimes = append(wokeTimes, p.Now())
		}
	})
	e.RunUntil(2 * time.Second)
	if len(wokeTimes) != 2 {
		t.Fatalf("got %d wakes, want 2", len(wokeTimes))
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("clock = %v, want 2s", e.Now())
	}
	// Continue the run.
	e.Run()
	if len(wokeTimes) != 5 {
		t.Fatalf("after full run got %d wakes, want 5", len(wokeTimes))
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEnv(1)
	e.RunUntil(time.Minute)
	if e.Now() != time.Minute {
		t.Fatalf("clock = %v, want 1m", e.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEnv(1)
	e.Go("p", func(p *Proc) { p.Sleep(time.Hour) })
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.GoAt(time.Second, "late", func(p *Proc) {})
}

func TestBlockingCallFromWrongContextPanics(t *testing.T) {
	e := NewEnv(1)
	var p1 *Proc
	p1 = e.Go("p1", func(p *Proc) { p.Sleep(time.Hour) })
	e.Go("p2", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Sleep on foreign proc did not panic")
			}
		}()
		p1.Sleep(time.Second) // wrong: p1 is not the running process
	})
	e.RunUntil(time.Minute)
}

func TestLiveCount(t *testing.T) {
	e := NewEnv(1)
	e.Go("a", func(p *Proc) { p.Sleep(time.Second) })
	e.Go("b", func(p *Proc) { p.Sleep(2 * time.Second) })
	if e.Live() != 2 {
		t.Fatalf("Live = %d, want 2", e.Live())
	}
	e.Run()
	if e.Live() != 0 {
		t.Fatalf("Live after run = %d, want 0", e.Live())
	}
}

// TestDeterminism runs a moderately complex simulation twice and requires
// identical traces.
func TestDeterminism(t *testing.T) {
	run := func() []string {
		var trace []string
		e := NewEnv(42)
		res := NewResource(e, "srv", 2)
		st := NewStore[int](e, "jobs")
		for i := 0; i < 20; i++ {
			st.Put(i)
		}
		for w := 0; w < 5; w++ {
			w := w
			e.Go(fmt.Sprintf("w%d", w), func(p *Proc) {
				for {
					job, ok := st.TryGet()
					if !ok {
						return
					}
					res.Acquire(p)
					p.Sleep(time.Duration(1+p.Rand().Intn(5)) * time.Millisecond)
					res.Release()
					trace = append(trace, fmt.Sprintf("w%d:j%d@%v", w, job, p.Now()))
				}
			})
		}
		e.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestEventsCounter(t *testing.T) {
	e := NewEnv(1)
	e.Go("p", func(p *Proc) { p.Sleep(time.Second) })
	e.Run()
	if e.Events() == 0 {
		t.Fatal("no events counted")
	}
}

func TestProcessPanicPropagatesToKernel(t *testing.T) {
	e := NewEnv(1)
	bomber := e.Go("bomber", func(p *Proc) {
		p.Sleep(time.Second)
		panic("boom")
	})
	joinedAt := time.Duration(-1)
	e.Go("joiner", func(p *Proc) {
		p.Join(bomber)
		joinedAt = p.Now()
	})
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("process panic did not reach Run's caller")
			}
			if s, ok := r.(string); !ok || s != `sim: process "bomber" panicked: boom` {
				t.Fatalf("panic value = %v", r)
			}
		}()
		e.Run()
	}()
	if !bomber.Ended() {
		t.Fatal("panicked process not marked ended")
	}
	if e.Live() != 1 {
		t.Fatalf("Live after panic = %d, want 1 (the joiner)", e.Live())
	}
	// The panicked process's done signal fired, so the joiner resumes
	// when the run continues.
	e.Run()
	if joinedAt != time.Second {
		t.Fatalf("joiner resumed at %v, want 1s", joinedAt)
	}
	if e.Live() != 0 {
		t.Fatalf("Live after second Run = %d, want 0", e.Live())
	}
}

func TestGoexitInProcessDoesNotHangRun(t *testing.T) {
	e := NewEnv(1)
	quitter := e.Go("quitter", func(p *Proc) {
		p.Sleep(time.Second)
		runtime.Goexit() // what t.FailNow does
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Run()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung after a process called runtime.Goexit")
	}
	if !quitter.Ended() || e.Live() != 0 {
		t.Fatalf("after Goexit: Ended = %v, Live = %d; want true, 0", quitter.Ended(), e.Live())
	}
}

func TestParkedForeverProcessLetsRunReturn(t *testing.T) {
	e := NewEnv(1)
	never := NewSignal(e)
	waiter := e.Go("waiter", func(p *Proc) { never.Wait(p) })
	e.Go("sleeper", func(p *Proc) { p.Sleep(time.Second) })
	if got := e.Run(); got != time.Second {
		t.Fatalf("Run returned at %v, want 1s", got)
	}
	if waiter.Ended() || e.Live() != 1 {
		t.Fatalf("Ended = %v, Live = %d; want the waiter still parked", waiter.Ended(), e.Live())
	}
}

func TestWakeAndFireEventsShareSequence(t *testing.T) {
	e := NewEnv(1)
	var order []string
	e.Go("sleeper", func(p *Proc) {
		e.OnTime(time.Second, func() { order = append(order, "fire-before") })
		p.Sleep(time.Second) // a wake event, queued between the two fires
		order = append(order, "wake")
	})
	e.Go("other", func(p *Proc) {
		e.OnTime(time.Second, func() { order = append(order, "fire-after") })
	})
	e.Run()
	want := []string{"fire-before", "wake", "fire-after"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}
