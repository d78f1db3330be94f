#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "support/cancellation.hpp"
#include "support/check.hpp"
#include "support/checked.hpp"
#include "support/fault_injection.hpp"
#include "support/record_log.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/status.hpp"
#include "support/table.hpp"

namespace ucp {
namespace {

TEST(Check, RequireThrowsInvalidArgument) {
  EXPECT_THROW(UCP_REQUIRE(false, "boom"), InvalidArgument);
  EXPECT_NO_THROW(UCP_REQUIRE(true, "fine"));
}

TEST(Check, CheckThrowsInternalError) {
  EXPECT_THROW(UCP_CHECK(1 == 2), InternalError);
  EXPECT_THROW(UCP_CHECK_MSG(false, "details"), InternalError);
  EXPECT_NO_THROW(UCP_CHECK(1 == 1));
}

TEST(Check, MessagesCarryContext) {
  try {
    UCP_REQUIRE(false, "the widget broke");
    FAIL() << "should have thrown";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("the widget broke"),
              std::string::npos);
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
  EXPECT_THROW(rng.next_below(0), InvalidArgument);
}

TEST(Rng, NextInInclusiveRange) {
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
  EXPECT_EQ(rng.next_in(3, 3), 3);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(SampleSet, Quantiles) {
  SampleSet s;
  for (int i = 10; i >= 1; --i) s.add(i);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.5);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 10.0);
  EXPECT_DOUBLE_EQ(s.mean(), 5.5);
}

TEST(SampleSet, QuantileAfterLaterAdds) {
  SampleSet s;
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.median(), 1.0);
  s.add(3.0);  // invalidates the sorted cache
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
}

TEST(TextTable, AlignsAndCounts) {
  TextTable t({"a", "long header"});
  t.add_row({"1", "2"});
  t.add_separator();
  t.add_row({"333", "4"});
  EXPECT_EQ(t.rows(), 3u);  // separator counts as a row entry
  const std::string s = t.to_string();
  EXPECT_NE(s.find("long header"), std::string::npos);
  EXPECT_NE(s.find("333"), std::string::npos);
  EXPECT_THROW(t.add_row({"only one"}), InvalidArgument);
}

TEST(Status, OkAndErrorRoundTrip) {
  const Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.code(), ErrorCode::kOk);

  const Status err(ErrorCode::kStepBudgetExhausted, "ran 501 of 500 steps");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), ErrorCode::kStepBudgetExhausted);
  EXPECT_EQ(err.detail(), "ran 501 of 500 steps");
  EXPECT_EQ(err.message(), "step-budget-exhausted: ran 501 of 500 steps");
}

TEST(Status, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
    const char* name = error_code_name(static_cast<ErrorCode>(c));
    EXPECT_NE(std::string(name), "unknown") << "code " << c;
  }
}

TEST(Expected, ValueAndStatusChannels) {
  Expected<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  EXPECT_EQ(*good, 42);
  EXPECT_EQ(good.value_or(-1), 42);

  Expected<int> bad(Status(ErrorCode::kCorruptCache, "row 7"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), ErrorCode::kCorruptCache);
  EXPECT_EQ(bad.value_or(-1), -1);
  EXPECT_THROW(bad.value(), InternalError);
}

TEST(Expected, MoveOnlyPayload) {
  Expected<std::unique_ptr<int>> e(std::make_unique<int>(9));
  ASSERT_TRUE(e.ok());
  std::unique_ptr<int> p = std::move(e).value();
  EXPECT_EQ(*p, 9);
}

TEST(FaultInjection, RegistryListsSitesAndArmsOneShot) {
  fault::disarm_all();
  const auto& sites = fault::known_sites();
  ASSERT_FALSE(sites.empty());
  const char* site = "sim.step";
  EXPECT_FALSE(fault::should_fail(site));

  fault::arm(site);
  EXPECT_TRUE(fault::should_fail(site));   // fires once...
  EXPECT_FALSE(fault::should_fail(site));  // ...then disarms itself
  EXPECT_GE(fault::hit_count(site), 1u);

  EXPECT_THROW(fault::arm("no.such.site"), InvalidArgument);
  fault::disarm_all();
}

TEST(FaultInjection, SkipCountDelaysTheFailure) {
  fault::disarm_all();
  fault::arm("sim.step", /*skip=*/2);
  EXPECT_FALSE(fault::should_fail("sim.step"));
  EXPECT_FALSE(fault::should_fail("sim.step"));
  EXPECT_TRUE(fault::should_fail("sim.step"));
  EXPECT_FALSE(fault::should_fail("sim.step"));
  fault::disarm_all();
}

TEST(FaultInjection, ScopedFaultDisarmsOnExit) {
  fault::disarm_all();
  {
    fault::ScopedFault f("wcet.solve");
    // Not consumed inside the scope.
  }
  EXPECT_FALSE(fault::should_fail("wcet.solve"));
}

TEST(Fnv1a, NonStandardBasisIsPinned) {
  // The basis is the standard FNV-1a offset basis with its last digit
  // dropped. The pinned grid fingerprint, every ucpd request fingerprint
  // and every journal checksum depend on it, so it must never be "fixed".
  EXPECT_EQ(support::kFnvBasis, 1469598103934665603ull);
  EXPECT_EQ(support::to_hex(support::fnv1a("")), "14650fb0739d0383");
  EXPECT_EQ(support::to_hex(support::fnv1a("a")), "44bd8ad473cd9906");
  // The standard basis would give af63dc4c8601ec8c for "a".
  EXPECT_NE(support::to_hex(support::fnv1a("a")), "af63dc4c8601ec8c");
}

TEST(Fnv1a, HexAndDecimalCodecs) {
  EXPECT_EQ(support::to_hex(0), "0000000000000000");
  EXPECT_EQ(support::to_hex(0xabcULL), "0000000000000abc");
  std::uint64_t v = 0;
  EXPECT_TRUE(support::parse_u64("18446744073709551615", v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_FALSE(support::parse_u64("18446744073709551616", v));
  EXPECT_FALSE(support::parse_u64("", v));
  EXPECT_FALSE(support::parse_u64("-1", v));
  EXPECT_FALSE(support::parse_u64("12a", v));
  EXPECT_FALSE(support::parse_u64(" 1", v));
}

TEST(Checked, PassThroughOnHealthyValues) {
  EXPECT_EQ(checked_add(2, 3), 5u);
  EXPECT_EQ(checked_mul(6, 7), 42u);
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(checked_add(max, 0), max);
  EXPECT_EQ(checked_mul(max, 1), max);
}

TEST(Checked, OverflowTrapsAsInternalError) {
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  EXPECT_THROW(checked_add(max, 1, "tau accumulation"), InternalError);
  EXPECT_THROW(checked_mul(std::uint64_t{1} << 33, std::uint64_t{1} << 33,
                           "node tau contribution"),
               InternalError);
  try {
    checked_add(max, max, "sim cycle clock");
    FAIL() << "expected InternalError";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("sim cycle clock"),
              std::string::npos);
  }
}

TEST(Cancellation, NoInstalledScopeMeansNeverCancelled) {
  EXPECT_FALSE(cancellation_requested());
  EXPECT_NO_THROW(throw_if_cancelled("unit test"));
}

TEST(Cancellation, TokenIsScopedAndNests) {
  CancellationToken outer;
  CancelScope scope(&outer);
  EXPECT_FALSE(cancellation_requested());
  outer.cancel();
  EXPECT_TRUE(cancellation_requested());
  {
    // A fresh nested token shadows the cancelled outer one (the retry
    // ladder re-runs a cancelled task under a reset token this way).
    CancellationToken inner;
    CancelScope nested(&inner);
    EXPECT_FALSE(cancellation_requested());
  }
  EXPECT_TRUE(cancellation_requested());
  outer.reset();
  EXPECT_FALSE(cancellation_requested());
}

TEST(Cancellation, ThrowCarriesTheKernelLocation) {
  CancellationToken token;
  CancelScope scope(&token);
  token.cancel();
  try {
    throw_if_cancelled("simplex pivot loop");
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_NE(std::string(e.what()).find("simplex pivot loop"),
              std::string::npos);
  }
}

/// Polls until `token` is cancelled or `limit_ms` passes.
bool wait_cancelled(const CancellationToken& token, int limit_ms) {
  for (int waited = 0; waited < limit_ms && !token.cancelled(); waited += 5)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  return token.cancelled();
}

TEST(Watchdog, CancelsOnlyTheOverdueSlotAndReportsTheFire) {
  std::atomic<int> fires{0};
  Watchdog watchdog(2, /*poll=*/true,
                    [&fires](std::int64_t overdue_ms) {
                      EXPECT_GE(overdue_ms, 0);
                      fires.fetch_add(1);
                    });
  watchdog.slot(0).arm(1);
  watchdog.slot(1).arm(600000);
  EXPECT_TRUE(wait_cancelled(watchdog.slot(0).token, 10000));
  // The fire disarms the slot: it is reported once, however long we wait.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(fires.load(), 1);
  EXPECT_FALSE(watchdog.slot(1).token.cancelled());
  watchdog.slot(1).disarm();
}

TEST(Watchdog, DisarmedAndUnpolledSlotsAreNeverCancelled) {
  Watchdog polled(1, /*poll=*/true);
  polled.slot(0).arm(50);
  polled.slot(0).disarm();
  polled.slot(0).arm(0);  // a zero deadline leaves the slot disarmed
  Watchdog unpolled(1, /*poll=*/false);
  unpolled.slot(0).arm(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_FALSE(polled.slot(0).token.cancelled());
  EXPECT_FALSE(unpolled.slot(0).token.cancelled());
}

TEST(CsvWriter, EscapesSpecials) {
  std::ostringstream os;
  CsvWriter w(os);
  w.write_row({"plain", "with,comma", "with\"quote"});
  EXPECT_EQ(os.str(), "plain,\"with,comma\",\"with\"\"quote\"\n");
}

TEST(Format, Doubles) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-1.0, 0), "-1");
}

TEST(Format, PctChange) {
  EXPECT_EQ(format_pct_change(0.888, 1), "-11.2%");
  EXPECT_EQ(format_pct_change(1.0132, 2), "+1.32%");
}

}  // namespace
}  // namespace ucp
