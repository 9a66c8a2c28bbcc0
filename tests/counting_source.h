// A data::ChunkSource decorator for tests that counts pulls per chunk.

#ifndef HDLDP_TESTS_COUNTING_SOURCE_H_
#define HDLDP_TESTS_COUNTING_SOURCE_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "data/chunk_source.h"

namespace hdldp {

// Forwards every pull to `base` and counts it per chunk. It overrides
// neither TrueMean nor OwnsTrueMean, so a mean run over it scores against
// the rows it serves.
class CountingSource final : public data::ChunkSource {
 public:
  explicit CountingSource(const data::ChunkSource* base)
      : base_(base), pulls_(base->num_chunks()) {}

  std::size_t num_users() const override { return base_->num_users(); }
  std::size_t num_dims() const override { return base_->num_dims(); }
  Result<std::span<const double>> Chunk(
      std::size_t chunk, data::ChunkBuffer* buffer) const override {
    if (chunk < pulls_.size()) pulls_[chunk].fetch_add(1);
    return base_->Chunk(chunk, buffer);
  }

  std::vector<std::uint32_t> pulls() const {
    std::vector<std::uint32_t> out;
    for (const auto& count : pulls_) out.push_back(count.load());
    return out;
  }

 private:
  const data::ChunkSource* base_;
  mutable std::vector<std::atomic<std::uint32_t>> pulls_;
};

}  // namespace hdldp

#endif  // HDLDP_TESTS_COUNTING_SOURCE_H_
