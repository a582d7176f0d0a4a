// Package repro is a from-scratch Go reproduction of "Scalable and
// Secure Row-Swap: Efficient and Safe Row Hammer Mitigation in Memory
// Systems" (Woo, Saileshwar, Nair — HPCA 2023).
//
// The library lives under internal/: the row-swap mitigations (RRS, SRS,
// Scale-SRS) in internal/core, the DDR4 memory-system simulator in
// internal/dram + internal/memctrl + internal/sim, the attack models in
// internal/attack, and the figure/table regeneration engine in
// internal/report. Executables are under cmd/, runnable examples under
// examples/, and bench_test.go in this directory hosts one benchmark per
// reproduced table and figure.
//
// The simulator is event-scheduled: every component advertises the next
// cycle at which it can interact with shared state (cpu.Core.NextWork,
// memctrl.Controller.NextWork, core.Mitigation.NextWork) and the kernel
// in internal/sim jumps straight to the earliest pending deadline —
// across memory stalls and batched compute stretches alike —
// bit-identically to the retained cycle-stepped oracle. The experiment
// matrix in internal/report spreads its independent, deterministic
// simulation jobs over a worker pool (-workers on the commands and on
// `go test -bench`), simulates each distinct cell once per process
// however many figures need it, and persists every result on disk
// (internal/simcache, -cache-dir/-no-cache on the commands) so repeated
// invocations never re-simulate; `go test -bench QuickMatrix .` emits
// BENCH_kernel.json tracking the wall-clock trajectory of all of it.
// ARCHITECTURE.md documents the kernel contract, the caches, and how to
// add a mitigation.
package repro
