#include "data/dataset.h"

#include <cstring>
#include <utility>

#include "data/chunk_source.h"

namespace hdldp {
namespace data {

Dataset::Dataset(std::size_t num_users, std::size_t num_dims,
                 std::vector<double> values)
    : num_users_(num_users), num_dims_(num_dims), values_(std::move(values)) {}

Result<Dataset> Dataset::Create(std::size_t num_users, std::size_t num_dims) {
  return Adopt(num_users, num_dims,
               std::vector<double>(num_users * num_dims, 0.0));
}

Result<Dataset> Dataset::Adopt(std::size_t num_users, std::size_t num_dims,
                               std::vector<double> values) {
  if (num_users == 0 || num_dims == 0) {
    return Status::InvalidArgument("Dataset requires num_users, num_dims > 0");
  }
  if (values.size() != num_users * num_dims) {
    return Status::InvalidArgument(
        "Dataset::Adopt requires num_users * num_dims values");
  }
  return Dataset(num_users, num_dims, std::move(values));
}

Status Dataset::FillRows(std::size_t first_row,
                         std::span<const double> values) {
  if (num_dims_ == 0 || values.size() % num_dims_ != 0) {
    return Status::InvalidArgument(
        "FillRows requires a whole number of rows");
  }
  const std::size_t count = values.size() / num_dims_;
  if (first_row + count > num_users_) {
    return Status::OutOfRange("FillRows range exceeds num_users");
  }
  ++version_;
  std::memcpy(values_.data() + first_row * num_dims_, values.data(),
              values.size() * sizeof(double));
  return Status::OK();
}

std::vector<double> Dataset::TrueMean() const {
  const std::shared_ptr<const MeanCache> cached =
      mean_cache_.load(std::memory_order_acquire);
  if (cached != nullptr && cached->version == version_) return cached->mean;
  // A resident pull never fails, and a Dataset always has users and
  // dimensions, so the Result always holds the mean.
  auto fresh = std::make_shared<MeanCache>();
  fresh->version = version_;
  fresh->mean =
      SurvivingMean(ResidentChunkSource(this), {}, RetryPolicy{}).value();
  mean_cache_.store(fresh, std::memory_order_release);
  return fresh->mean;
}

Result<Dataset> Dataset::ResampleDimensions(std::size_t new_num_dims,
                                            Rng* rng) const {
  if (new_num_dims == 0) {
    return Status::InvalidArgument("ResampleDimensions requires > 0 dims");
  }
  std::vector<std::size_t> picks(new_num_dims);
  for (auto& p : picks) p = static_cast<std::size_t>(rng->UniformInt(num_dims_));
  HDLDP_ASSIGN_OR_RETURN(Dataset out, Create(num_users_, new_num_dims));
  for (std::size_t i = 0; i < num_users_; ++i) {
    const double* row = values_.data() + i * num_dims_;
    for (std::size_t j = 0; j < new_num_dims; ++j) {
      out.Set(i, j, row[picks[j]]);
    }
  }
  return out;
}

}  // namespace data
}  // namespace hdldp
