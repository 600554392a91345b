package main

import "syscall"

// osYield gives up the CPU to any other thread queued on it. The
// generator spins between requests; without this, Linux may queue a
// thread it wakes (a serving worker) behind the spinning thread until
// the next scheduler tick, and every few milliseconds one request waits
// a whole tick.
func osYield() { _, _, _ = syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }
