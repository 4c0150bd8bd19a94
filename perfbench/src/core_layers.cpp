// Bare-layer micro-measures over a workload's own bits (traced runs only).
// They time the gf2 and core layers without any party lock, fan-out or
// obs flush around them, so the distributed-layer spans can be read as
// "core cost + the layers above it".
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>

#include "common.hpp"
#include "core/det_wave.hpp"
#include "core/rand_wave.hpp"
#include "gf2/gf2.hpp"
#include "gf2/shared_randomness.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kChunkBits = 1 << 16;
std::atomic<int> g_level_sink{0};  // keeps the timed hash calls observable

// Feeds `count` bits of `bits` (cycled from chunk boundary `*cursor`) to
// `update(words, nbits)` in 64 Ki-bit chunks; returns the seconds spent.
template <class Update>
double feed_cycled(const waves::util::PackedBitStream& bits,
                   std::uint64_t& cursor, std::uint64_t count,
                   Update&& update) {
  const auto words = bits.words();
  const std::uint64_t total = bits.size();
  double busy = 0.0;
  while (count > 0) {
    if (cursor >= total) cursor = 0;
    const std::uint64_t n = std::min({kChunkBits, count, total - cursor});
    const auto chunk = words.subspan(cursor / 64, (n + 63) / 64);
    const auto t0 = Clock::now();
    update(chunk, n);
    busy += std::chrono::duration<double>(Clock::now() - t0).count();
    cursor += n;
    count -= n;
  }
  return busy;
}

int field_dim(std::uint64_t window) {
  int d = 1;
  while ((std::uint64_t{1} << d) < 2 * window) ++d;
  return d;
}

}  // namespace

void measure_core_layers(Result& r, const waves::util::PackedBitStream& bits,
                         std::uint64_t rand_window, std::uint64_t det_window,
                         std::uint64_t shared_seed) {
  // core: RandWave at the workload's union-counting parameters.
  const waves::gf2::Field field(field_dim(rand_window));
  waves::gf2::SharedRandomness coins(shared_seed);
  waves::core::RandWave rw({.eps = 0.2, .window = rand_window, .c = 36},
                           field, coins);
  std::uint64_t cursor = 0;
  const auto rand_update = [&rw](std::span<const std::uint64_t> w,
                                 std::uint64_t n) { rw.update_words(w, n); };
  feed_cycled(bits, cursor, rand_window, rand_update);  // warm: fill window
  const std::uint64_t timed = std::max<std::uint64_t>(rand_window, 1 << 20);
  r.layer["core.randwave_update_ns_per_item"] =
      feed_cycled(bits, cursor, timed, rand_update) * 1e9 /
      static_cast<double>(timed);

  // gf2: one ExpHash::level call over the workload's set-bit positions,
  // reduced into the field exactly as RandWave does.
  const auto positions = one_positions(bits, 1 << 16);
  const std::uint64_t mask = field.order_mask();
  const waves::gf2::ExpHash& hash = rw.hash();
  std::uint64_t calls = 0;
  int sink = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  while (elapsed < 0.05 && !positions.empty()) {
    for (const std::uint64_t p : positions) sink += hash.level(p & mask);
    calls += positions.size();
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  }
  r.layer["gf2.level_ns"] =
      calls == 0 ? 0.0 : elapsed * 1e9 / static_cast<double>(calls);
  g_level_sink.fetch_add(sink, std::memory_order_relaxed);

  // core: DetWave (eps = 0.05) at the basic-counting window.
  waves::core::DetWave dw(20, det_window);
  cursor = 0;
  const auto det_update = [&dw](std::span<const std::uint64_t> w,
                                std::uint64_t n) { dw.update_words(w, n); };
  feed_cycled(bits, cursor, det_window, det_update);
  const std::uint64_t det_timed = std::max<std::uint64_t>(det_window, 1 << 20);
  r.layer["core.detwave_observe_ns_per_item"] =
      feed_cycled(bits, cursor, det_timed, det_update) * 1e9 /
      static_cast<double>(det_timed);
  // Workloads without RandWave parties report the DetWave synopsis size.
  r.layer.emplace("core.space_bits_per_party",
                  static_cast<double>(dw.space_bits()));
}

}  // namespace perfbench
