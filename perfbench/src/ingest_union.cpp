// ingest_union — closed-loop ingest, no queries.
//
// One load thread feeds 4 union-counting CountParty objects (RandWave,
// eps = 0.2, c = 36, 5 instances, N = 2^20) round-robin through
// observe_words in 64 Ki-bit chunks of a Bernoulli(0.5) stream. Each
// party's input is a fixed 4 Mi-item block generated from the seed and
// cycled. The GF(2^d) hash, level select and expiry do the work; the
// network and the referee combine do none.
//
// Correctness: party 0 is checkpointed (untimed) every few rounds; after
// the run a fresh reference party restores the last checkpoint and replays
// the same bits through per-bit observe(). Its final checkpoint must equal
// party 0's.
#include <memory>
#include <span>
#include <vector>

#include "common.hpp"
#include "distributed/party.hpp"

namespace perfbench {

namespace {

constexpr int kParties = 4;
constexpr int kInstances = 5;
constexpr std::uint64_t kWindow = 1 << 20;
constexpr std::uint64_t kChunk = 1 << 16;  // bits per observe_words call
constexpr std::uint64_t kBlock = 1 << 22;  // generated items per party
constexpr std::uint64_t kChunksPerBlock = kBlock / kChunk;
constexpr std::uint64_t kCheckpointEvery = 4;  // rounds between checkpoints
constexpr int kSetups = 5;

using waves::distributed::CountParty;
using waves::distributed::CountPartyCheckpoint;

const waves::core::RandWave::Params kParams{
    .eps = 0.2, .window = kWindow, .c = 36};

std::span<const std::uint64_t> chunk_words(
    const waves::util::PackedBitStream& block, std::uint64_t chunk) {
  const std::uint64_t c = chunk % kChunksPerBlock;
  return block.words().subspan(c * (kChunk / 64), kChunk / 64);
}

struct Deployment {
  std::vector<std::unique_ptr<CountParty>> parties;
  std::uint64_t next_chunk = 0;  // per-party chunk cursor (all in lockstep)
};

// Parties plus a full window of backlog, so expiry runs from the first
// timed chunk.
std::unique_ptr<Deployment> set_up(
    const std::vector<waves::util::PackedBitStream>& inputs,
    std::uint64_t shared_seed) {
  auto d = std::make_unique<Deployment>();
  for (int j = 0; j < kParties; ++j) {
    d->parties.push_back(
        std::make_unique<CountParty>(kParams, kInstances, shared_seed));
  }
  for (; d->next_chunk < kWindow / kChunk; ++d->next_chunk) {
    for (int j = 0; j < kParties; ++j) {
      d->parties[static_cast<std::size_t>(j)]->observe_words(
          chunk_words(inputs[static_cast<std::size_t>(j)], d->next_chunk),
          kChunk);
    }
  }
  return d;
}

struct Reference {
  CountPartyCheckpoint ck;
  std::uint64_t chunk = 0;  // party 0's chunk cursor when `ck` was taken
};

void run_phase(Deployment& d,
               const std::vector<waves::util::PackedBitStream>& inputs,
               double seconds, bool traced, SpanLog& log, Reference& ref,
               Result& r) {
  log.enable(traced);
  const auto end = Clock::now() + std::chrono::duration<double>(seconds);
  while (Clock::now() < end) {
    if (d.next_chunk % kCheckpointEvery == 0) {
      ref.ck = d.parties[0]->checkpoint();
      ref.chunk = d.next_chunk;
    }
    for (int j = 0; j < kParties; ++j) {
      const auto words =
          chunk_words(inputs[static_cast<std::size_t>(j)], d.next_chunk);
      const std::uint64_t qid = d.next_chunk * kParties +
                                static_cast<std::uint64_t>(j);
      const std::int64_t t0 = now_ns();
      {
        ScopedSpan span(log, "distributed.observe_words", qid);
        d.parties[static_cast<std::size_t>(j)]->observe_words(words, kChunk);
      }
      const double ms = ns_to_ms(now_ns() - t0);
      if (traced) {
        r.traced_op_ms.push_back(ms);
        r.layer_samples["distributed.observe_words_ns_per_item"].push_back(
            ms * 1e6 / static_cast<double>(kChunk));
        r.layer_samples["distributed.observe_us"].push_back(ms * 1e3);
      } else {
        r.op_ms.push_back(ms);
        r.ingest_late_ms.push_back(ms);  // closed loop: due when called
        r.ingest_items += static_cast<double>(kChunk);
        r.ingest_busy_s += ms * 1e-3;
        r.op_count += 1.0;
        r.op_seconds += ms * 1e-3;
      }
    }
    ++d.next_chunk;
  }
}

// Replays party 0's bits since the last checkpoint through per-bit
// observe() on a restored reference party and compares final checkpoints.
bool reference_matches(const Deployment& d, const Reference& ref,
                       const waves::util::PackedBitStream& input0,
                       std::uint64_t shared_seed) {
  CountParty reference(kParams, kInstances, shared_seed);
  reference.restore(ref.ck);
  for (std::uint64_t c = ref.chunk; c < d.next_chunk; ++c) {
    const std::uint64_t base = (c % kChunksPerBlock) * kChunk;
    for (std::uint64_t i = 0; i < kChunk; ++i) {
      reference.observe(input0.bit(base + i));
    }
  }
  const CountPartyCheckpoint got = d.parties[0]->checkpoint();
  const CountPartyCheckpoint want = reference.checkpoint();
  return got.cursor == want.cursor && got.waves == want.waves;
}

}  // namespace

void run_ingest_union(const Options& opt, Result& r) {
  const std::uint64_t shared_seed = derive_seed(opt.seed, 100);
  std::vector<waves::util::PackedBitStream> inputs;
  for (int j = 0; j < kParties; ++j) {
    inputs.push_back(bernoulli_bits(
        0.5, derive_seed(opt.seed, static_cast<std::uint64_t>(j)), kBlock));
  }
  r.rates["parties"] = kParties;
  r.rates["window"] = static_cast<double>(kWindow);
  r.rates["chunk_items"] = static_cast<double>(kChunk);
  r.rates["density"] = 0.5;

  std::unique_ptr<Deployment> d;
  for (int s = 0; s < kSetups; ++s) {
    d.reset();
    const auto t0 = Clock::now();
    d = set_up(inputs, shared_seed);
    r.setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }

  SpanLog log;
  Reference ref;
  const double untraced = opt.trace ? opt.seconds / 2 : opt.seconds;
  run_phase(*d, inputs, untraced, false, log, ref, r);
  if (opt.trace) run_phase(*d, inputs, opt.seconds / 2, true, log, ref, r);

  const std::uint64_t calls = (d->next_chunk - kWindow / kChunk) * kParties;
  r.attempted = calls;
  if (!reference_matches(*d, ref, inputs[0], shared_seed)) {
    // The divergence can't be pinned to one call: every replayed call of
    // the checked party counts as wrong.
    r.failed += d->next_chunk - ref.chunk;
    r.failures.push_back("party 0 checkpoint differs from per-bit reference");
  }

  if (opt.trace) {
    double bits = 0.0;
    for (const auto& p : d->parties) {
      bits += static_cast<double>(p->space_bits());
    }
    r.layer["core.space_bits_per_party"] = bits / kParties;
    measure_core_layers(r, inputs[0], kWindow, kWindow, shared_seed);
    r.span_logs.push_back(std::move(log));
  }
}

}  // namespace perfbench
