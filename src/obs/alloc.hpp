// Opt-in allocation counting for profiling the query path.
//
// The obs library itself never overrides operator new — that would force
// the hook on every binary linking waves. Instead, binaries that want
// allocation profiling (wavecli, bench_query) include tools/alloc_hook.hpp,
// whose global operator new/delete overrides call note_alloc(). Library
// code measures windows as differences of these counters (the client's
// per-fetch counts: net::ClientLeg::Charge); in a binary without the hook
// the counts stay 0 and every window reads 0 — a recognizable "not wired
// up" value rather than a misleading one.
//
// note_alloc() is called from inside operator new: it must not allocate,
// lock, or touch anything but the relaxed atomic.
//
// Compiled to no-ops when WAVES_OBS_ENABLED is 0.
#pragma once

#include <atomic>
#include <cstdint>

#include "obs/metrics.hpp"

namespace waves::obs {

#if WAVES_OBS_ENABLED

namespace detail {
// C++20 constinit inline variables: zero-initialized before any dynamic
// init, so hooks firing during static construction are safe. The global
// counter feeds process-wide deltas (bench loops); the thread-local one
// lets a window count only the calling thread's allocations while other
// threads allocate concurrently. Work interleaved on one thread (a loop
// serving many connections) is counted per handler: net::ClientLeg::Charge
// brackets each one and charges it to the party it ran for.
inline constinit std::atomic<std::uint64_t> g_alloc_count{0};
inline constinit thread_local std::uint64_t t_alloc_count = 0;
}  // namespace detail

/// Called by the opt-in operator new hook on every allocation.
inline void note_alloc() noexcept {
  detail::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  ++detail::t_alloc_count;
}

/// Process-wide allocation count since start (0 if no hook is installed).
[[nodiscard]] inline std::uint64_t alloc_count() noexcept {
  return detail::g_alloc_count.load(std::memory_order_relaxed);
}

/// This thread's allocation count since thread start (0 without the hook).
[[nodiscard]] inline std::uint64_t thread_alloc_count() noexcept {
  return detail::t_alloc_count;
}

#else  // WAVES_OBS_ENABLED == 0

inline void note_alloc() noexcept {}
[[nodiscard]] inline std::uint64_t alloc_count() noexcept { return 0; }
[[nodiscard]] inline std::uint64_t thread_alloc_count() noexcept { return 0; }

#endif  // WAVES_OBS_ENABLED

}  // namespace waves::obs
