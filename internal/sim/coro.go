//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// startProc turns fn into a coroutine and runs it until it first parks.
// Called in kernel context.
//
// The process is an iter.Pull coroutine: activate resumes it with next,
// and park suspends it with yield, each a direct switch between the two
// stacks with no scheduler round trip. When fn panics, the deferred
// bookkeeping still runs and the panic is re-raised, named after the
// process; iter.Pull carries it (or a runtime.Goexit) out of next to the
// caller of Run.
//
// The stop function iter.Pull returns is not kept: a process parked
// forever is simply never resumed.
func (e *Env) startProc(p *Proc, fn func(*Proc)) {
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			r := recover()
			p.ended = true
			e.nLive--
			p.done.Fire()
			if r != nil {
				panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
			}
		}()
		fn(p)
	})
	e.activate(p)
}
