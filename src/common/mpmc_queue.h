// A bounded multi-producer queue drained in batches — the ingestion
// buffer of the aggregation service (service/aggregation_service.h).
//
// The service's robustness contract needs exactly these behaviours from
// its queues, so that is all this type provides:
//
//   * TryPush  — non-blocking admission. A full queue refuses the item,
//     which the caller accounts as load shedding; ingestion never
//     silently drops and never blocks the submitting thread.
//   * Push     — blocking admission (backpressure mode): the producer
//     waits for capacity instead of shedding.
//   * PopAll   — blocking batch drain: takes every queued item under one
//     lock. Returns false only once the queue is closed *and* empty, so
//     consumers drain every admitted item before exiting — Close() is a
//     flush barrier, not an abort.
//   * Release  — returns a drained batch's capacity. Items a consumer
//     holds count against the capacity until released, so a batch drain
//     never admits more than `capacity` items in flight (queued plus in
//     process).
//
// The queue stores its items in a `Batch` container, std::vector<T> by
// default. PopAll swaps the queue's batch with the consumer's, so both
// keep their storage and a steady stream allocates nothing here. A batch
// type may store more than the items: the service's batch copies each
// pushed envelope's payload into a byte arena (IngestBatch in
// service/aggregation_service.h), so the payload bytes ride along
// without a heap allocation per report.
//
// Everything is a mutex plus two condition variables over that batch.
// Measured on bench_e2e's service_stream (2 workers, d = 256, m = 8,
// 4-vCPU Xeon VM), that is not below the noise floor when paid per
// item: with a pop per item the service ingested ~700k reports/s and
// its producer spent ~0.78 of its time in Submit. Draining in batches
// pays the consumer's lock and notify once per batch: ~1.2M reports/s,
// and the producer then spent ~0.7 of its time waiting for workers
// that allocated ~11 times per report. With payloads in the batch's
// arena and an allocation-free worker path: ~2.3M reports/s, Submit
// ~0.66 of the producer's time and the wait ~0.34. The producer's own
// parse and push bound ingest now, not the handoff.

#ifndef HDLDP_COMMON_MPMC_QUEUE_H_
#define HDLDP_COMMON_MPMC_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

namespace hdldp {

/// \brief Bounded MPMC queue; all operations are thread-safe. `Batch`
/// holds the queued items: it needs push_back taking a T rvalue, size(),
/// empty() and a member swap(Batch&), and size() is what `capacity`
/// counts.
template <typename T, typename Batch = std::vector<T>>
class BoundedQueue {
 public:
  /// Creates a queue admitting at most `capacity` (> 0) items, counting
  /// both queued items and drained ones not yet released.
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// \brief Admits `item` iff there is capacity right now. Returns false
  /// (leaving `item` moved-from only on success) when full or closed —
  /// the caller sheds the item and accounts for it.
  bool TryPush(T&& item) {
    bool was_empty = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || items_.size() + held_ >= capacity_) return false;
      was_empty = items_.empty();
      items_.push_back(std::move(item));
    }
    if (was_empty) ready_.notify_one();
    return true;
  }

  /// \brief Admits `item`, waiting for capacity (backpressure). Returns
  /// false only if the queue is closed before space opens up.
  bool Push(T&& item) {
    bool was_empty = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      space_.wait(lock, [this] {
        return closed_ || items_.size() + held_ < capacity_;
      });
      if (closed_) return false;
      was_empty = items_.empty();
      items_.push_back(std::move(item));
    }
    // PopAll takes everything, so only the push that ends an empty
    // stretch can have a consumer to wake.
    if (was_empty) ready_.notify_one();
    return true;
  }

  /// \brief Moves every queued item, oldest first, into `*batch` (which
  /// must be empty; its storage is recycled as the queue's), waiting
  /// while the queue is empty. The items keep their capacity until
  /// Release(). Returns false once the queue is closed and fully
  /// drained.
  bool PopAll(Batch* batch) {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;
    held_ += items_.size();
    batch->swap(items_);
    return true;
  }

  /// \brief Returns the capacity of `count` drained items, waking
  /// producers blocked in Push().
  void Release(std::size_t count) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      held_ -= count;
    }
    space_.notify_all();
  }

  /// \brief Closes the queue: pushes start failing immediately, PopAll
  /// drains the backlog then returns false. Idempotent.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
    space_.notify_all();
  }

  /// Items currently queued, not counting held ones (racy by nature;
  /// for stats/tests only).
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::condition_variable space_;
  Batch items_;
  std::size_t held_ = 0;  // drained by PopAll, not yet released
  bool closed_ = false;
};

}  // namespace hdldp

#endif  // HDLDP_COMMON_MPMC_QUEUE_H_
