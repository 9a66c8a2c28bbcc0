#include "engine/ordered_truth.h"

#include <algorithm>

#include "common/thread_pool.h"

namespace hdldp {
namespace engine {

OrderedTruthFold::OrderedTruthFold(std::size_t num_dims)
    : window_(ThreadPool::Shared().num_threads() + 1), sums_(num_dims) {}

void OrderedTruthFold::Offer(std::size_t chunk,
                             const Result<std::span<const double>>& rows) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (stalled_) return;
  if (chunk < cursor_ || chunk >= cursor_ + window_) {
    StallLocked();
    return;
  }
  turn_.wait(lock, [&] { return stalled_ || cursor_ == chunk; });
  if (stalled_) return;
  if (rows.ok()) {
    sums_.AddRows(rows.value());
  } else {
    skipped_.push_back(chunk);
  }
  ++cursor_;
  turn_.notify_all();
}

void OrderedTruthFold::Settle(std::size_t chunk) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!stalled_ && chunk >= cursor_) StallLocked();
}

void OrderedTruthFold::StallLocked() {
  stalled_ = true;
  turn_.notify_all();
}

Result<std::vector<double>> OrderedTruthFold::Mean(
    const data::ChunkSource& source,
    const std::vector<std::size_t>& quarantined,
    const data::RetryPolicy& retry) {
  const auto below_cursor =
      std::lower_bound(quarantined.begin(), quarantined.end(), cursor_);
  if (!std::equal(quarantined.begin(), below_cursor, skipped_.begin(),
                  skipped_.end())) {
    // The prefix disagrees with the chunks the estimate covers: start over.
    sums_ = NeumaierColumns(source.num_dims());
    cursor_ = 0;
  }
  return data::SurvivingMeanFrom(source, quarantined, retry, cursor_, &sums_);
}

}  // namespace engine
}  // namespace hdldp
