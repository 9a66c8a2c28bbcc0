#include "data/generator_source.h"

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace hdldp {
namespace data {
namespace {

// The frozen stream keys. Parameters come from their own tagged stream
// so the row streams of chunks 0..k never shift when a spec adds
// parameters; every chunk draws from its own row stream, so chunk c is
// reproducible without generating chunks 0..c-1.
Result<PreparedGenerator> PrepareChunkKeyed(const GeneratorSpec& spec,
                                            std::uint64_t seed) {
  std::uint64_t param_state = seed ^ kGeneratorParamTag;
  Rng param_rng(SplitMix64(&param_state));
  return PreparedGenerator::Prepare(spec, &param_rng);
}

void DrawChunk(const PreparedGenerator& generator, std::uint64_t seed,
               std::size_t chunk, std::span<double> rows) {
  Rng rng(ChunkSeed(seed ^ kGeneratorRowTag, chunk));
  generator.DrawRows(&rng, rows);
}

}  // namespace

Result<GeneratorChunkSource> GeneratorChunkSource::Create(
    const GeneratorSpec& spec, std::uint64_t seed) {
  HDLDP_ASSIGN_OR_RETURN(PreparedGenerator generator,
                         PrepareChunkKeyed(spec, seed));
  GeneratorChunkSource source(std::move(generator), seed);
  if (source.generator_.needs_ranges()) {
    source.ranges_ = ColumnRanges(source.num_dims());
    std::vector<double> scratch;
    for (std::size_t c = 0; c < source.num_chunks(); ++c) {
      scratch.resize(source.ChunkUsers(c) * source.num_dims());
      DrawChunk(source.generator_, seed, c, scratch);
      source.ranges_.Add(scratch);
    }
  }
  return source;
}

Result<std::span<const double>> GeneratorChunkSource::Chunk(
    std::size_t chunk, ChunkBuffer* buffer) const {
  if (chunk >= num_chunks()) {
    return Status::OutOfRange("chunk index out of range");
  }
  std::vector<double>& out = buffer->storage();
  out.resize(ChunkUsers(chunk) * num_dims());
  DrawChunk(generator_, seed_, chunk, out);
  generator_.PostProcess(ranges_, out);
  return std::span<const double>(out.data(), out.size());
}

Result<Dataset> GenerateChunkKeyed(const GeneratorSpec& spec,
                                   std::uint64_t seed) {
  HDLDP_ASSIGN_OR_RETURN(const PreparedGenerator generator,
                         PrepareChunkKeyed(spec, seed));
  // Each chunk's raw rows land straight in the population's one n x d
  // allocation; Finish takes the min-max ranges over it, so no prepass.
  const std::size_t n = generator.num_users();
  const std::size_t d = generator.num_dims();
  std::vector<double> rows(n * d);
  for (std::size_t begin = 0; begin < n; begin += kUsersPerChunk) {
    DrawChunk(generator, seed, begin / kUsersPerChunk,
              std::span<double>(rows).subspan(
                  begin * d, std::min(kUsersPerChunk, n - begin) * d));
  }
  return generator.Finish(std::move(rows));
}

}  // namespace data
}  // namespace hdldp
