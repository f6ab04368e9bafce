// Package sim implements a deterministic, process-oriented discrete-event
// simulation kernel.
//
// Processes are coroutines built with iter.Pull that run cooperatively:
// exactly one process (or the kernel) executes at a time, and control is
// handed over at well-defined yield points (Sleep, Acquire, Wait, ...).
// A handoff switches directly between the kernel's stack and the
// process's; no other goroutine is scheduled in between. Virtual time only
// advances in the kernel loop, between events. Given the same seed and the
// same program, a simulation produces the identical event trace on every
// run, which makes experiments reproducible bit-for-bit.
//
// The design follows the classic SimPy/CSIM process model:
//
//   - Env owns the virtual clock and the pending-event heap.
//   - Proc is a cooperative process; it may only call blocking primitives
//     from its own function while it is the running process.
//   - Resource is a FIFO server with fixed capacity (a queueing station).
//   - Store is a FIFO buffer of items with blocking Get.
//   - Signal is a one-shot broadcast event; WaitGroup is a counting barrier.
//
// Events scheduled for the same instant fire in scheduling order (a strict
// sequence number breaks ties), so FIFO disciplines are exact, not
// probabilistic.
//
// The kernel needs a Go 1.23 or newer toolchain (see coro.go).
package sim
