#include "engine/chunked_estimation.h"

namespace hdldp {
namespace engine {

SampledChunkScratch& PerWorkerSampledScratch() {
  static thread_local SampledChunkScratch scratch;
  return scratch;
}

ChunkedEstimation::ChunkedEstimation(
    const data::ChunkSource& source, const RunControl& control,
    std::size_t num_threads, data::ChunkPartials<NeumaierColumns>* truth)
    : num_users_(source.num_users()),
      num_chunks_((num_users_ + kUsersPerChunk - 1) / kUsersPerChunk),
      control_(control),
      num_threads_(num_threads),
      source_(&source),
      truth_(truth) {}

Result<std::span<const double>> ChunkedEstimation::ChunkRows(
    const ChunkRange& range) const {
  // One buffer per worker thread: chunk bodies never run concurrently on
  // the same thread, and a body is done with the previous span before
  // its next pull.
  static thread_local data::ChunkBuffer buffer;
  Result<std::span<const double>> rows =
      data::PullChunk(*source_, range.chunk, &buffer, control_.retry);
  if (truth_ != nullptr && rows.ok()) {
    NeumaierColumns sums(source_->num_dims());
    sums.AddRows(rows.value());
    truth_->Set(range.chunk, std::move(sums));
  }
  return rows;
}

ChunkRange ChunkedEstimation::Range(std::size_t c) const {
  ChunkRange range;
  range.chunk = c;
  range.begin = c * kUsersPerChunk;
  range.end = std::min(num_users_, range.begin + kUsersPerChunk);
  range.chunk_seed = ChunkSeed(control_.seed, c);
  return range;
}

Rng ChunkedEstimation::DimSamplerStream(const ChunkRange& range) const {
  // Fixed mix keeps the dimension-sampler stream decorrelated from the
  // chunk's lane streams (which also derive from chunk_seed).
  std::uint64_t mix = range.chunk_seed + 0x517cc1b727220a95ULL;
  return Rng(SplitMix64(&mix));
}

}  // namespace engine
}  // namespace hdldp
