// Unit tests for the Status/Result error model.

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/result.h"
#include "common/status.h"

namespace hdldp {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.message(), "");
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, FactoryHelpersSetCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::Internal("boom").message(), "boom");
}

TEST(StatusTest, ToStringIncludesCodeName) {
  EXPECT_EQ(Status::NotFound("missing").ToString(), "NotFound: missing");
}

TEST(StatusTest, CopyPreservesState) {
  Status original = Status::Internal("broken");
  Status copy = original;           // NOLINT(performance-unnecessary-copy)
  Status assigned;
  assigned = original;
  EXPECT_EQ(copy.message(), "broken");
  EXPECT_EQ(assigned.message(), "broken");
  EXPECT_EQ(original.message(), "broken");
}

TEST(StatusTest, MoveTransfersState) {
  Status original = Status::OutOfRange("range");
  Status moved = std::move(original);
  EXPECT_EQ(moved.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(moved.message(), "range");
}

TEST(StatusTest, EqualityComparesCodes) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusTest, CodeToStringCoversAllCodes) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeToString(StatusCode::kInvalidArgument),
            "InvalidArgument");
  EXPECT_EQ(StatusCodeToString(StatusCode::kNotImplemented),
            "NotImplemented");
}

Status FailInner() { return Status::NotFound("inner"); }

Status PropagatesWithMacro() {
  HDLDP_RETURN_NOT_OK(FailInner());
  return Status::Internal("unreachable");
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_EQ(PropagatesWithMacro().code(), StatusCode::kNotFound);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::InvalidArgument("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, ValueOrReturnsValueWhenOk) {
  Result<std::string> r(std::string("hello"));
  EXPECT_EQ(r.value_or("fallback"), "hello");
}

TEST(ResultTest, OkStatusConvertsToInternalError) {
  Result<int> r(Status::OK());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string taken = std::move(r).value();
  EXPECT_EQ(taken, "payload");
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterWithMacro(int x) {
  HDLDP_ASSIGN_OR_RETURN(const int half, HalveEven(x));
  return HalveEven(half);
}

TEST(ResultTest, AssignOrReturnMacroChains) {
  Result<int> ok = QuarterWithMacro(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 2);
  EXPECT_FALSE(QuarterWithMacro(6).ok());  // 6 -> 3 -> odd.
  EXPECT_FALSE(QuarterWithMacro(3).ok());
}

}  // namespace
}  // namespace hdldp
