// Status: the error model used across hdldp.
//
// Library code never throws; fallible operations return a Status (or a
// Result<T>, see common/result.h). This mirrors the Arrow/RocksDB error
// idiom mandated by the project style guides.

#ifndef HDLDP_COMMON_STATUS_H_
#define HDLDP_COMMON_STATUS_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace hdldp {

/// Machine-readable category of a failure.
enum class StatusCode : int {
  kOk = 0,
  /// Caller passed an argument outside the documented contract.
  kInvalidArgument = 1,
  /// A numeric quantity left its valid domain (overflow, empty domain, ...).
  kOutOfRange = 2,
  /// The object is not in a state where the operation is allowed.
  kFailedPrecondition = 3,
  /// A lookup (mechanism name, dimension index, ...) found nothing.
  kNotFound = 4,
  /// An internal invariant was violated; indicates a bug in hdldp.
  kInternal = 5,
  /// The operation is recognized but not implemented.
  kNotImplemented = 6,
  /// A transient failure (I/O hiccup, injected fault): retrying the same
  /// operation may succeed. data::PullChunk's RetryPolicy retries exactly
  /// this code.
  kUnavailable = 7,
  /// Stored data is corrupt or unrecoverable (checksum mismatch,
  /// truncated payload, interrupted write). Retrying will not help;
  /// quarantine (engine allow_missing_chunks) or repair is required.
  kDataLoss = 8,
  /// A finite resource ran out (disk full, quota exceeded, short write
  /// because the device has no space). The on-disk state the operation
  /// was replacing is preserved; retrying only helps after the resource
  /// is freed.
  kResourceExhausted = 9,
};

/// \brief Returns a stable human-readable name for a status code.
std::string_view StatusCodeToString(StatusCode code);

/// \brief Success-or-error outcome of an operation.
///
/// A default-constructed Status is OK and carries no allocation; error
/// statuses allocate a small state block holding code and message.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() noexcept = default;

  /// Constructs a status with the given code and message. `code` must not be
  /// kOk; use the default constructor for success.
  Status(StatusCode code, std::string message);

  Status(const Status& other);
  Status& operator=(const Status& other);
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  /// \brief True iff this status represents success.
  bool ok() const noexcept { return state_ == nullptr; }

  /// \brief The status code (kOk for a success status).
  StatusCode code() const noexcept {
    return state_ == nullptr ? StatusCode::kOk : state_->code;
  }

  /// \brief The error message ("" for a success status).
  const std::string& message() const noexcept;

  /// \brief "OK" or "<CODE>: <message>".
  std::string ToString() const;

  /// Factory helpers, one per error code.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  friend bool operator==(const Status& a, const Status& b) {
    return a.code() == b.code();
  }

 private:
  struct State {
    StatusCode code;
    std::string message;
  };
  // nullptr <=> OK. Keeping success allocation-free makes Status cheap to
  // return from hot paths (perturbation loops run millions of times).
  std::unique_ptr<State> state_;
};

}  // namespace hdldp

/// Propagates an error Status from the current function.
#define HDLDP_RETURN_NOT_OK(expr)                 \
  do {                                            \
    ::hdldp::Status _st = (expr);                 \
    if (!_st.ok()) return _st;                    \
  } while (false)

#endif  // HDLDP_COMMON_STATUS_H_
