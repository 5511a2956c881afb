#include "core/status.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "death_test_util.h"
#include "io/json.h"

namespace decaylib {
namespace {

TEST(StatusTest, DefaultIsOk) {
  const core::Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), core::StatusCode::kOk);
  EXPECT_TRUE(status.message().empty());
  EXPECT_EQ(status.ToString(), "ok");
  EXPECT_EQ(status, core::Status::Ok());
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  const struct {
    core::Status status;
    core::StatusCode code;
    const char* name;
  } cases[] = {
      {core::Status::InvalidArgument("bad input"),
       core::StatusCode::kInvalidArgument, "invalid_argument"},
      {core::Status::FailedPrecondition("wrong state"),
       core::StatusCode::kFailedPrecondition, "failed_precondition"},
      {core::Status::NumericError("nan"), core::StatusCode::kNumericError,
       "numeric_error"},
      {core::Status::IoError("unreadable"), core::StatusCode::kIoError,
       "io_error"},
      {core::Status::Internal("worker threw"), core::StatusCode::kInternal,
       "internal"},
  };
  for (const auto& c : cases) {
    EXPECT_FALSE(c.status.ok());
    EXPECT_EQ(c.status.code(), c.code);
    EXPECT_STREQ(core::StatusCodeName(c.code), c.name);
    // ToString is "<code name>: <message>" -- what CLI error paths print.
    EXPECT_EQ(c.status.ToString(),
              std::string(c.name) + ": " + c.status.message());
  }
}

TEST(StatusTest, ThrowIfErrorPreservesTheStatus) {
  EXPECT_NO_THROW(core::ThrowIfError(core::Status::Ok()));
  try {
    core::ThrowIfError(core::Status::NumericError("aggregate went inf"));
    FAIL() << "expected StatusError";
  } catch (const core::StatusError& e) {
    EXPECT_EQ(e.status().code(), core::StatusCode::kNumericError);
    EXPECT_EQ(e.status().message(), "aggregate went inf");
    // what() must read as the full diagnostic even when caught as a plain
    // std::exception (the sweep runner's generic catch records it).
    EXPECT_STREQ(e.what(), "numeric_error: aggregate went inf");
  }
}

TEST(StatusOrTest, CarriesValueOrStatus) {
  const auto parse = [](double v) -> core::StatusOr<double> {
    if (!(v > 0.0)) return core::Status::InvalidArgument("needs v > 0");
    return std::sqrt(v);
  };
  const core::StatusOr<double> good = parse(4.0);
  ASSERT_TRUE(good.ok());
  EXPECT_DOUBLE_EQ(good.value(), 2.0);
  EXPECT_DOUBLE_EQ(*good, 2.0);
  EXPECT_TRUE(good.status().ok());

  const core::StatusOr<double> bad = parse(-1.0);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), core::StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.status().message(), "needs v > 0");
}

TEST(StatusOrTest, ArrowAndMutableAccess) {
  core::StatusOr<std::vector<int>> v = std::vector<int>{1, 2, 3};
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->size(), 3u);
  v->push_back(4);
  EXPECT_EQ(v.value().back(), 4);
}

TEST(StatusOrDeathTest, ValueOnFailureIsProgrammerError) {
  SKIP_IF_DL_CHECK_OFF();
  const core::StatusOr<int> failed = core::Status::IoError("gone");
  EXPECT_DEATH((void)failed.value(), "failed result");
}

// --- io::Json: the checkpoint sidecar's parser/writer --------------------

TEST(JsonTest, ParsesScalarsAndStructure) {
  const auto doc = io::Json::Parse(
      R"({"name":"smoke","grid":8,"done":true,"gap":null,)"
      R"("cells":[{"i":0,"sum":"1.5"},{"i":1,"sum":"-2.25"}]})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->Find("name")->AsString(), "smoke");
  EXPECT_EQ(doc->Find("grid")->AsNumber(), 8.0);
  EXPECT_TRUE(doc->Find("done")->AsBool());
  EXPECT_TRUE(doc->Find("gap")->is_null());
  EXPECT_EQ(doc->Find("missing"), nullptr);
  const auto& cells = doc->Find("cells")->Items();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[1].Find("sum")->AsString(), "-2.25");
}

TEST(JsonTest, RejectsMalformedInputWithOffsets) {
  // Each of these is a way a sidecar can be torn by the crash it should
  // survive; all must come back as kIoError, never abort.
  const char* bad[] = {
      "",                        // empty file
      "{",                       // truncated object
      R"({"a":1,})",             // trailing comma
      R"({"a" 1})",              // missing colon
      R"({"a":1} x)",            // trailing junk
      R"({"a":"unterminated)",   // torn string
      R"([1, 2,)",               // truncated array
      R"({"a":1e})",             // malformed number
      R"({"a":nul})",            // torn literal
  };
  for (const char* text : bad) {
    const auto doc = io::Json::Parse(text);
    EXPECT_FALSE(doc.ok()) << text;
    EXPECT_EQ(doc.status().code(), core::StatusCode::kIoError) << text;
  }
  // Offsets point at the problem byte.
  const auto doc = io::Json::Parse(R"({"a":1} x)");
  EXPECT_NE(doc.status().message().find("offset"), std::string::npos)
      << doc.status().message();
}

TEST(JsonTest, DepthIsCapped) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "[";
  const auto doc = io::Json::Parse(deep);
  EXPECT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), core::StatusCode::kIoError);
}

TEST(JsonTest, DumpParseRoundTripIsExact) {
  io::Json obj = io::Json::Object();
  obj.Set("label", io::Json::String("q\"uo\\te\n\tctrl"));
  obj.Set("count", io::Json::Number(12345.0));
  io::Json arr = io::Json::Array();
  // Values chosen to expose any sloppy number formatting.
  const double values[] = {0.1, 1.0 / 3.0, -2.5e-300, 6.02214076e23,
                           std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::max()};
  for (double v : values) arr.Append(io::Json::Number(v));
  obj.Set("values", std::move(arr));

  const std::string text = obj.Dump();
  const auto back = io::Json::Parse(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->Find("label")->AsString(), "q\"uo\\te\n\tctrl");
  const auto& items = back->Find("values")->Items();
  ASSERT_EQ(items.size(), std::size(values));
  for (std::size_t i = 0; i < items.size(); ++i) {
    // %.17g must reproduce each double bit-exactly through the parser.
    EXPECT_EQ(items[i].AsNumber(), values[i]) << i;
  }
  // And the serialisation itself is stable (second dump identical).
  EXPECT_EQ(back->Dump(), text);
}

TEST(JsonDeathTest, NonFiniteNumbersAreProgrammerError) {
  SKIP_IF_DL_CHECK_OFF();
  io::Json v = io::Json::Number(std::numeric_limits<double>::infinity());
  EXPECT_DEATH((void)v.Dump(), "finite");
}

}  // namespace
}  // namespace decaylib
