//go:build !go1.23

package sim

// The kernel runs each process as an iter.Pull coroutine (coro.go), and
// package iter exists only from Go 1.23. The module's go line stays at
// 1.22, so an older toolchain gets this far and stops here: build with
// Go 1.23 or newer.
var _ = sim_kernel_requires_go1_23_toolchain
