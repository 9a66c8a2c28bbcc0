#include "data/chunk_source.h"

#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <optional>
#include <thread>

#include "common/math.h"

namespace hdldp {
namespace data {

ChunkBuffer::~ChunkBuffer() { AdoptWindow(nullptr, 0); }

ChunkBuffer::ChunkBuffer(ChunkBuffer&& other) noexcept
    : storage_(std::move(other.storage_)),
      window_addr_(other.window_addr_),
      window_len_(other.window_len_),
      nested_(std::move(other.nested_)) {
  other.window_addr_ = nullptr;
  other.window_len_ = 0;
}

ChunkBuffer& ChunkBuffer::operator=(ChunkBuffer&& other) noexcept {
  if (this != &other) {
    AdoptWindow(nullptr, 0);
    storage_ = std::move(other.storage_);
    window_addr_ = other.window_addr_;
    window_len_ = other.window_len_;
    nested_ = std::move(other.nested_);
    other.window_addr_ = nullptr;
    other.window_len_ = 0;
  }
  return *this;
}

void ChunkBuffer::AdoptWindow(void* addr, std::size_t len) {
  if (window_addr_ != nullptr) ::munmap(window_addr_, window_len_);
  window_addr_ = addr;
  window_len_ = len;
}

ChunkBuffer* ChunkBuffer::nested() {
  if (nested_ == nullptr) nested_ = std::make_unique<ChunkBuffer>();
  return nested_.get();
}

namespace {

Status CheckChunkIndex(const ChunkSource& source, std::size_t chunk) {
  if (chunk >= source.num_chunks()) {
    return Status::OutOfRange("chunk index out of range");
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<double>> ChunkSource::TrueMean() const {
  return SurvivingMean(*this, {}, RetryPolicy{});
}

Result<std::span<const double>> PullChunk(const ChunkSource& source,
                                          std::size_t chunk,
                                          ChunkBuffer* buffer,
                                          const RetryPolicy& retry) {
  const auto clock_now_ms = [&]() -> std::uint64_t {
    if (retry.now_ms) return retry.now_ms();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  };
  const int max_attempts = std::max(1, retry.max_attempts);
  // Doubles per failure but saturates rather than wrapping, at the
  // largest count std::chrono::milliseconds holds.
  constexpr auto kMaxBackoffMs =
      static_cast<std::uint64_t>(std::chrono::milliseconds::max().count());
  std::uint64_t backoff_ms = std::min(retry.initial_backoff_ms, kMaxBackoffMs);
  std::optional<std::uint64_t> retry_epoch_ms;
  for (int attempt = 1;; ++attempt) {
    Result<std::span<const double>> rows = source.Chunk(chunk, buffer);
    if (rows.ok() || rows.status().code() != StatusCode::kUnavailable ||
        attempt == max_attempts) {
      return rows;
    }
    if (retry.max_total_backoff_ms > 0) {
      const std::uint64_t now = clock_now_ms();
      if (!retry_epoch_ms.has_value()) {
        retry_epoch_ms = now;  // Deadline arms at the first failure.
      } else if (now - *retry_epoch_ms >= retry.max_total_backoff_ms) {
        return rows;  // Out of wall-clock budget: fail as-is, no retry.
      }
    }
    if (retry.sleep) {
      retry.sleep(backoff_ms);
    } else if (backoff_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    }
    backoff_ms = backoff_ms > kMaxBackoffMs / 2 ? kMaxBackoffMs : 2 * backoff_ms;
  }
}

Result<std::vector<double>> SurvivingMean(
    const ChunkSource& source, const std::vector<std::size_t>& quarantined,
    const RetryPolicy& retry, ChunkPartials<NeumaierColumns> partials) {
  const std::size_t d = source.num_dims();
  const std::size_t n = source.SurvivingUsers(quarantined);
  if (n == 0 || d == 0) {
    return Status::FailedPrecondition(
        "a mean requires surviving users; the source is empty or every "
        "chunk was quarantined");
  }
  HDLDP_ASSIGN_OR_RETURN(
      const NeumaierColumns sums,
      partials.Finish(source, quarantined, retry, NeumaierColumns(d),
                      [d](std::size_t, std::span<const double> rows)
                          -> Result<NeumaierColumns> {
                        NeumaierColumns chunk_sums(d);
                        chunk_sums.AddRows(rows);
                        return chunk_sums;
                      }));
  return sums.Mean(n);
}

Result<std::span<const double>> ResidentChunkSource::Chunk(
    std::size_t chunk, ChunkBuffer* /*buffer*/) const {
  HDLDP_RETURN_NOT_OK(CheckChunkIndex(*this, chunk));
  return dataset_->Rows(ChunkBegin(chunk), ChunkUsers(chunk));
}

Result<std::span<const double>> SlicedChunkSource::Chunk(
    std::size_t chunk, ChunkBuffer* buffer) const {
  HDLDP_RETURN_NOT_OK(CheckChunkIndex(*this, chunk));
  const std::size_t d = num_dims();
  const std::size_t users = ChunkUsers(chunk);
  const std::size_t global_begin = first_user_ + ChunkBegin(chunk);
  const std::size_t base_chunk = global_begin / kUsersPerChunk;
  const std::size_t offset_in_base = global_begin % kUsersPerChunk;
  if (offset_in_base + users <= base_->ChunkUsers(base_chunk)) {
    // Whole slice chunk lives inside one base chunk: forward a subspan of
    // the base pull (zero-copy when the base is).
    HDLDP_ASSIGN_OR_RETURN(const std::span<const double> base_rows,
                           base_->Chunk(base_chunk, buffer->nested()));
    return base_rows.subspan(offset_in_base * d, users * d);
  }
  // Unaligned slice spanning two base chunks: gather into storage. The
  // second pull reuses the nested buffer, so copy before re-pulling.
  std::vector<double>& out = buffer->storage();
  out.resize(users * d);
  const std::size_t first_part = base_->ChunkUsers(base_chunk) - offset_in_base;
  HDLDP_ASSIGN_OR_RETURN(std::span<const double> base_rows,
                         base_->Chunk(base_chunk, buffer->nested()));
  std::memcpy(out.data(), base_rows.data() + offset_in_base * d,
              first_part * d * sizeof(double));
  HDLDP_ASSIGN_OR_RETURN(base_rows,
                         base_->Chunk(base_chunk + 1, buffer->nested()));
  std::memcpy(out.data() + first_part * d, base_rows.data(),
              (users - first_part) * d * sizeof(double));
  return std::span<const double>(out.data(), out.size());
}

Result<std::span<const double>> TransformedChunkSource::Chunk(
    std::size_t chunk, ChunkBuffer* buffer) const {
  HDLDP_RETURN_NOT_OK(CheckChunkIndex(*this, chunk));
  HDLDP_ASSIGN_OR_RETURN(const std::span<const double> base_rows,
                         base_->Chunk(chunk, buffer->nested()));
  std::vector<double>& out = buffer->storage();
  out.resize(base_rows.size());
  for (std::size_t k = 0; k < base_rows.size(); ++k) {
    out[k] = transform_(base_rows[k]);
  }
  return std::span<const double>(out.data(), out.size());
}

Result<std::vector<double>> MaterializeRows(const ChunkSource& source,
                                            std::size_t first_row,
                                            std::size_t row_count) {
  const std::size_t d = source.num_dims();
  if (first_row + row_count > source.num_users()) {
    return Status::OutOfRange("MaterializeRows range exceeds num_users");
  }
  std::vector<double> out(row_count * d);
  ChunkBuffer buffer;
  std::size_t row = first_row;
  while (row < first_row + row_count) {
    const std::size_t chunk = row / kUsersPerChunk;
    const std::size_t offset = row % kUsersPerChunk;
    const std::size_t take = std::min(source.ChunkUsers(chunk) - offset,
                                      first_row + row_count - row);
    HDLDP_ASSIGN_OR_RETURN(const std::span<const double> rows,
                           source.Chunk(chunk, &buffer));
    std::memcpy(out.data() + (row - first_row) * d, rows.data() + offset * d,
                take * d * sizeof(double));
    row += take;
  }
  return out;
}

}  // namespace data
}  // namespace hdldp
