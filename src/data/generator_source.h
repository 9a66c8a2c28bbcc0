// Streaming synthetic data: chunk-keyed generation and the
// GeneratorChunkSource that synthesizes each chunk on demand.
//
// Every distribution has one body, data::PreparedGenerator
// (data/generators.h). The classic contract feeds it one sequential
// stream, so producing chunk c requires producing chunks 0..c-1 first —
// fine resident, useless for streaming. The chunk-keyed contract is the
// same body under a second, frozen keying of its streams:
//
//   * the population parameters come from
//     Rng(SplitMix64(seed ^ kGeneratorParamTag));
//   * the rows of chunk c come from Rng(ChunkSeed(seed ^ kGeneratorRowTag,
//     c)), drawn by PreparedGenerator::DrawRows;
//   * post-processing is PreparedGenerator::PostProcess, with min-max
//     ranges taken over the whole population (a streaming prepass for
//     GeneratorChunkSource; min/max commute, so any chunk order agrees).
//
// GenerateChunkKeyed (eager, returns a resident Dataset) and
// GeneratorChunkSource (streaming) apply that keying to the same body, so
// for the same (spec, seed) they deliver the same values; the golden
// tests pin both the contract's draw bits and their equality.

#ifndef HDLDP_DATA_GENERATOR_SOURCE_H_
#define HDLDP_DATA_GENERATOR_SOURCE_H_

#include <cstdint>
#include <utility>

#include "common/result.h"
#include "data/chunk_source.h"
#include "data/dataset.h"
#include "data/generators.h"

namespace hdldp {
namespace data {

/// Domain-separation tags for the chunk-keyed generator contract
/// (frozen; changing either changes every chunk-keyed dataset).
inline constexpr std::uint64_t kGeneratorParamTag = 0x8f5c28f5c28f5c29ULL;
inline constexpr std::uint64_t kGeneratorRowTag = 0x6b43a9b5e4f71c02ULL;

/// \brief Eager chunk-keyed generation: a resident Dataset holding the
/// values GeneratorChunkSource streams for the same (spec, seed). This is
/// the reference twin for golden tests and for comparing in-memory runs
/// against `generate`-then-`--input` runs.
Result<Dataset> GenerateChunkKeyed(const GeneratorSpec& spec,
                                   std::uint64_t seed);

/// \brief ChunkSource that synthesizes each chunk on demand from
/// (spec, seed, chunk) — n users cost O(chunk) memory, never O(n).
/// Create() validates the spec and runs the normalization prepass (for
/// min-max specs) so Chunk() is a pure deterministic fill; concurrent
/// pulls share only immutable state.
class GeneratorChunkSource final : public ChunkSource {
 public:
  static Result<GeneratorChunkSource> Create(const GeneratorSpec& spec,
                                             std::uint64_t seed);

  std::size_t num_users() const override { return generator_.num_users(); }
  std::size_t num_dims() const override { return generator_.num_dims(); }
  Result<std::span<const double>> Chunk(std::size_t chunk,
                                        ChunkBuffer* buffer) const override;

 private:
  GeneratorChunkSource(PreparedGenerator generator, std::uint64_t seed)
      : generator_(std::move(generator)), seed_(seed) {}

  PreparedGenerator generator_;
  std::uint64_t seed_;
  // Population-wide raw ranges (min-max specs only).
  ColumnRanges ranges_;
};

}  // namespace data
}  // namespace hdldp

#endif  // HDLDP_DATA_GENERATOR_SOURCE_H_
