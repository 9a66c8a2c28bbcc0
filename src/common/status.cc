#include "common/status.h"

namespace hdldp {
namespace {
const std::string& EmptyString() {
  static const std::string kEmpty;
  return kEmpty;
}
}  // namespace

std::string_view StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kNotImplemented:
      return "NotImplemented";
    case StatusCode::kUnavailable:
      return "Unavailable";
    case StatusCode::kDataLoss:
      return "DataLoss";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
  }
  return "Unknown";
}

Status::Status(StatusCode code, std::string message) {
  if (code != StatusCode::kOk) {
    state_ = std::make_unique<State>(State{code, std::move(message)});
  }
}

Status::Status(const Status& other) {
  if (other.state_ != nullptr) {
    state_ = std::make_unique<State>(*other.state_);
  }
}

Status& Status::operator=(const Status& other) {
  if (this != &other) {
    state_ = other.state_ == nullptr ? nullptr
                                     : std::make_unique<State>(*other.state_);
  }
  return *this;
}

const std::string& Status::message() const noexcept {
  return state_ == nullptr ? EmptyString() : state_->message;
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(StatusCodeToString(code()));
  out += ": ";
  out += message();
  return out;
}

}  // namespace hdldp
