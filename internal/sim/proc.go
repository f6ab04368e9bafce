package sim

import "time"

// Proc is a cooperative simulation process. A Proc's methods that can block
// (Sleep, Join, and the blocking methods of Resource, Store, Signal,
// WaitGroup that take a *Proc) must only be called from the process's own
// function while it is the running process.
type Proc struct {
	env   *Env
	name  string
	next  func() (struct{}, bool) // runs the coroutine until it parks or ends
	yield func(struct{}) bool     // parks the coroutine; set when it starts
	done  *Signal
	ended bool
}

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Env returns the owning environment.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.env.now }

// Rand returns the environment's PRNG.
func (p *Proc) Rand() *Rand { return p.env.rng }

// Sleep suspends the process for d of virtual time. Negative durations are
// treated as zero (yield to same-time events scheduled earlier).
func (p *Proc) Sleep(d time.Duration) {
	p.env.mustBeRunning(p, "Sleep")
	if d < 0 {
		d = 0
	}
	p.env.wake(p.env.now+d, p)
	p.park()
}

// Yield gives same-instant events scheduled before now a chance to run,
// then resumes. Equivalent to Sleep(0).
func (p *Proc) Yield() { p.Sleep(0) }

// Join blocks until q has finished. Joining an already-finished process
// returns immediately.
func (p *Proc) Join(q *Proc) {
	q.done.Wait(p)
}

// Ended reports whether the process function has returned.
func (p *Proc) Ended() bool { return p.ended }

// park transfers control back to the kernel without scheduling a wake-up.
// Something else (a resource grant, a signal, a wake event queued before
// parking) must re-activate the process.
func (p *Proc) park() { p.yield(struct{}{}) }
