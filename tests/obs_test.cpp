// ucp::obs — spans, metrics, sinks and the progress reporter.
//
// The load-bearing properties: span stacks balance across threads and the
// exclusive-time arithmetic is exact; histogram buckets follow the
// documented power-of-two mapping; snapshots are deterministic; the trace
// sink emits well-formed Chrome JSON; and — the contract everything else
// rests on — enabling full instrumentation leaves sweep rows and their
// fingerprint bit-identical.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <chrono>

#include "cache/config.hpp"
#include "core/optimizer.hpp"
#include "energy/model.hpp"
#include "exp/harness.hpp"
#include "ir/text_codec.hpp"
#include "obs/build_info.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"
#include "suite/suite.hpp"
#include "support/fault_injection.hpp"
#include "support/parallel.hpp"

namespace ucp::obs {
namespace {

// Every test leaves the process as it found it: obs off, buffers empty.
class ObsTest : public testing::Test {
 protected:
  void SetUp() override {
    set_enabled(false);
    set_trace_enabled(false);
    reset_trace();
    registry().reset_values();
  }
  void TearDown() override {
    set_enabled(false);
    set_trace_enabled(false);
    reset_trace();
    registry().reset_values();
  }
};

TEST_F(ObsTest, HistogramBucketBoundaries) {
  // bucket 0 = {0}; bucket i >= 1 = [2^(i-1), 2^i - 1].
  EXPECT_EQ(Histogram::bucket_index(0), 0);
  EXPECT_EQ(Histogram::bucket_index(1), 1);
  EXPECT_EQ(Histogram::bucket_index(2), 2);
  EXPECT_EQ(Histogram::bucket_index(3), 2);
  EXPECT_EQ(Histogram::bucket_index(4), 3);
  EXPECT_EQ(Histogram::bucket_index(7), 3);
  EXPECT_EQ(Histogram::bucket_index(8), 4);
  EXPECT_EQ(Histogram::bucket_index(std::uint64_t{1} << 63), 64);
  EXPECT_EQ(Histogram::bucket_index(~std::uint64_t{0}), 64);

  EXPECT_EQ(Histogram::bucket_range(0), (std::pair<std::uint64_t,
                                                   std::uint64_t>{0, 0}));
  EXPECT_EQ(Histogram::bucket_range(1), (std::pair<std::uint64_t,
                                                   std::uint64_t>{1, 1}));
  EXPECT_EQ(Histogram::bucket_range(2), (std::pair<std::uint64_t,
                                                   std::uint64_t>{2, 3}));
  EXPECT_EQ(Histogram::bucket_range(64).second, ~std::uint64_t{0});
  // Ranges tile the whole uint64 line: each bucket starts one past the
  // previous end, and membership round-trips through bucket_index.
  for (int i = 1; i < Histogram::kBuckets; ++i) {
    const auto prev = Histogram::bucket_range(i - 1);
    const auto cur = Histogram::bucket_range(i);
    EXPECT_EQ(cur.first, prev.second + 1) << "bucket " << i;
    EXPECT_EQ(Histogram::bucket_index(cur.first), i);
    EXPECT_EQ(Histogram::bucket_index(cur.second), i);
  }

  Histogram h;
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 1000ull}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1006u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(Histogram::bucket_index(1000)), 1u);
}

TEST_F(ObsTest, SnapshotIsDeterministicAndSorted) {
  auto workload = [] {
    registry().counter("test.b.count").add(3);
    registry().counter("test.a.count").increment();
    registry().gauge("test.peak").set_max(7);
    registry().gauge("test.peak").set_max(4);  // below the peak: no effect
    registry().histogram("test.h").record(5);
    registry().histogram("test.h").record(0);
  };

  workload();
  const Snapshot first = registry().snapshot();
  const std::string first_json = snapshot_json(first);
  registry().reset_values();
  workload();
  const Snapshot second = registry().snapshot();

  EXPECT_EQ(first.counters, second.counters);
  EXPECT_EQ(first.gauges, second.gauges);
  ASSERT_EQ(first.histograms.size(), second.histograms.size());
  for (std::size_t i = 0; i < first.histograms.size(); ++i) {
    EXPECT_EQ(first.histograms[i].name, second.histograms[i].name);
    EXPECT_EQ(first.histograms[i].count, second.histograms[i].count);
    EXPECT_EQ(first.histograms[i].buckets, second.histograms[i].buckets);
  }
  EXPECT_EQ(first_json, snapshot_json(second));

  EXPECT_TRUE(std::is_sorted(first.counters.begin(), first.counters.end()));
  // reset_values keeps registrations (and instrument addresses) alive.
  EXPECT_EQ(registry().counter("test.a.count").value(), 1u);
  registry().reset_values();
  EXPECT_EQ(registry().counter("test.a.count").value(), 0u);
  EXPECT_EQ(registry().snapshot().counters.size(), first.counters.size());
}

TEST_F(ObsTest, SpanStacksBalanceAcrossThreads) {
  set_trace_enabled(true);
  constexpr int kThreads = 4;
  std::vector<std::thread> pool;
  for (int i = 0; i < kThreads; ++i) {
    pool.emplace_back([] {
      Span outer("test.outer.op");
      for (int j = 0; j < 3; ++j) Span inner("test.inner.op");
      EXPECT_EQ(open_span_depth(), 1u);  // outer still open on this thread
    });
  }
  for (std::thread& t : pool) t.join();
  set_trace_enabled(false);

  const std::vector<TraceEvent> events = drain_trace();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads) * 4);
  EXPECT_TRUE(std::is_sorted(events.begin(), events.end(),
                             [](const TraceEvent& a, const TraceEvent& b) {
                               return a.start_ns != b.start_ns
                                          ? a.start_ns < b.start_ns
                                          : a.tid < b.tid;
                             }));

  std::map<std::uint32_t, std::vector<const TraceEvent*>> by_tid;
  for (const TraceEvent& e : events) by_tid[e.tid].push_back(&e);
  ASSERT_EQ(by_tid.size(), static_cast<std::size_t>(kThreads));
  for (const auto& [tid, list] : by_tid) {
    const TraceEvent* outer = nullptr;
    std::uint64_t inner_total = 0;
    std::size_t inners = 0;
    for (const TraceEvent* e : list) {
      if (std::string(e->name) == "test.outer.op") {
        EXPECT_EQ(outer, nullptr) << "one outer span per thread";
        outer = e;
      } else {
        EXPECT_EQ(std::string(e->name), "test.inner.op");
        EXPECT_EQ(e->excl_ns, e->dur_ns);  // leaves have no children
        inner_total += e->dur_ns;
        ++inners;
      }
    }
    ASSERT_NE(outer, nullptr);
    EXPECT_EQ(inners, 3u);
    // Exact exclusive-time arithmetic: children's durations are subtracted
    // from the parent at close, nothing more.
    EXPECT_GE(outer->dur_ns, inner_total);
    EXPECT_EQ(outer->excl_ns, outer->dur_ns - inner_total);
  }
  EXPECT_EQ(open_span_depth(), 0u);
}

TEST_F(ObsTest, TraceJsonIsWellFormedAndExact) {
  // Synthetic events pin the serialization exactly: ns -> µs with three
  // decimals, cat = segment before the first '.', excl_us in args.
  std::vector<TraceEvent> events;
  events.push_back(
      TraceEvent{"analysis.cache.fixpoint", 1500, 2500, 1000, 0, 0});
  events.push_back(TraceEvent{"exp.task.run", 2000000, 3000000, 500, 0, 3});
  const std::string json = trace_json(events);

  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"analysis.cache.fixpoint\",\"cat\":"
                      "\"analysis\",\"ph\":\"X\",\"ts\":1.500,\"dur\":2.500"),
            std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"exp\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":2000.000"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"excl_us\":1.000}"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":3"), std::string::npos);

  // Structural parse-back: braces and brackets balance and never go
  // negative (span names contain no quoting hazards by construction).
  int depth = 0;
  for (const char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);

  EXPECT_EQ(trace_json({}),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}\n");
}

TEST_F(ObsTest, SinkFailureDegradesToStatus) {
  const Snapshot snapshot = registry().snapshot();
  {
    fault::ScopedFault f("obs.sink_write");
    const std::string path =
        testing::TempDir() + "obs_faulted." + std::to_string(::getpid());
    const Status s = write_metrics_file(path, snapshot);
    EXPECT_FALSE(s.ok());
    std::remove(path.c_str());
  }
  // Unwritable path: Status, not an exception — sinks may never throw into
  // a sweep.
  EXPECT_FALSE(
      write_trace_file("/nonexistent-dir/obs.trace.json", {}).ok());
}

TEST_F(ObsTest, ProgressReporterWeightEtaAndNoticeLimiting) {
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  ProgressReporter::Options options;
  options.enabled = true;
  options.min_interval_ms = 1000000;  // only the final case may report
  options.out = out;
  ProgressReporter reporter(options);
  // 2 of 6 cases (and 90 of 100 weight units) resumed from a journal: the
  // remaining work is light, so the ETA must not read 4/6 of the runtime.
  reporter.begin(6, 100, 2, 90);
  reporter.case_done(1, 2);  // first tick always reports
  reporter.case_done(1, 2);  // within the interval: suppressed
  reporter.notice("retry", "first retry notice");
  reporter.notice("retry", "suppressed retry notice");
  reporter.notice("audit", "audit notice");
  reporter.case_done(2, 5);  // final case always reports
  EXPECT_EQ(reporter.done_cases(), 6u);
  reporter.finish();

  std::fflush(out);
  std::rewind(out);
  std::string text;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, out) != nullptr) text += buf;
  std::fclose(out);

  // First and final ticks report; the middle one is rate-limited away.
  EXPECT_NE(text.find("3/6 use cases"), std::string::npos);
  EXPECT_EQ(text.find("4/6 use cases"), std::string::npos);
  EXPECT_NE(text.find("6/6 use cases"), std::string::npos);
  EXPECT_EQ(text.find("6/6 use cases"), text.rfind("6/6 use cases"));
  EXPECT_NE(text.find("99.0% of work"), std::string::npos);
  // One retry line, the second suppressed but reported by finish().
  EXPECT_NE(text.find("[sweep:retry] first retry notice"), std::string::npos);
  EXPECT_EQ(text.find("suppressed retry notice"), std::string::npos);
  EXPECT_NE(text.find("[sweep:retry] ... and 1 more retry notices"),
            std::string::npos);
  EXPECT_NE(text.find("[sweep:audit] audit notice"), std::string::npos);
}

TEST_F(ObsTest, DisabledReporterIsSilent) {
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  ProgressReporter::Options options;
  options.enabled = false;
  options.out = out;
  ProgressReporter reporter(options);
  reporter.begin(2, 2, 0, 0);
  reporter.case_done(2, 2);
  reporter.notice("retry", "never shown");
  reporter.announce("never shown");
  reporter.finish();
  std::fflush(out);
  EXPECT_EQ(std::ftell(out), 0L);
  std::fclose(out);
  EXPECT_EQ(reporter.done_cases(), 2u);  // accounting still works
}

TEST_F(ObsTest, HistogramQuantilesAreBoundedAndConsistent) {
  Histogram empty;
  EXPECT_EQ(empty.quantile(0.5), 0.0);

  // The zero bucket is a point range, so all-zero data is estimated exactly.
  Histogram zeros;
  for (int i = 0; i < 100; ++i) zeros.record(0);
  EXPECT_EQ(zeros.p50(), 0.0);
  EXPECT_EQ(zeros.p99(), 0.0);

  // Uniform 1..1000: true p50 = 500.5, p90 = 900.1, p99 = 990.01. The
  // estimator interpolates inside power-of-two buckets, so each estimate
  // stays within the documented 2x relative-error bound and inside the
  // value range of the data.
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const double p50 = h.p50();
  const double p90 = h.p90();
  const double p99 = h.p99();
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GE(p50, 500.5 / 2.0);
  EXPECT_LE(p50, 500.5 * 2.0);
  EXPECT_GE(p90, 900.1 / 2.0);
  EXPECT_LE(p90, 1023.0);  // hi edge of the bucket holding the maximum
  EXPECT_GE(p99, 990.01 / 2.0);
  EXPECT_LE(p99, 1023.0);
  EXPECT_GE(h.quantile(0.0), 1.0);
  EXPECT_LE(h.quantile(1.0), 1023.0);

  // All three estimator entry points agree on the same data: the live
  // registry histogram, its snapshot value, and the free-function core.
  Histogram& reg = registry().histogram("test.quantile.h");
  for (std::uint64_t v = 1; v <= 1000; ++v) reg.record(v);
  const Snapshot snapshot = registry().snapshot();
  const Snapshot::HistogramValue* hv = nullptr;
  for (const auto& value : snapshot.histograms)
    if (value.name == "test.quantile.h") hv = &value;
  ASSERT_NE(hv, nullptr);
  for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(reg.quantile(q), hv->quantile(q)) << "q=" << q;
    EXPECT_DOUBLE_EQ(hv->quantile(q),
                     histogram_quantile(hv->buckets, hv->count, q))
        << "q=" << q;
    EXPECT_DOUBLE_EQ(reg.quantile(q), h.quantile(q)) << "q=" << q;
  }
}

// Restores the default logging configuration on scope exit, so a failing
// assertion can't leave a tmpfile sink installed for later tests.
class ScopedLogConfig {
 public:
  explicit ScopedLogConfig(const LogOptions& options) {
    configure_logging(options);
  }
  ~ScopedLogConfig() { configure_logging(LogOptions{}); }
};

std::string read_all(std::FILE* f) {
  std::fflush(f);
  std::rewind(f);
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  return text;
}

TEST_F(ObsTest, LogJsonFieldOrderIsDeterministic) {
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  LogOptions options;
  options.json = true;
  options.stream = out;
  std::string text;
  {
    ScopedLogConfig scoped(options);
    log(LogLevel::kInfo, "test", "ordering", "hello world",
        LogFields()
            .num("zeta", std::uint64_t{7})
            .str("alpha", "a \"b\"")
            .boolean("flag", true)
            .real("ratio", 0.5));
    text = read_all(out);
  }
  std::fclose(out);
  // Envelope keys first, then caller fields in insertion order — zeta
  // before alpha, despite the alphabet.
  EXPECT_EQ(text.rfind("{\"ts_ms\":", 0), 0u) << text;
  EXPECT_NE(
      text.find("\"level\":\"info\",\"component\":\"test\","
                "\"event\":\"ordering\",\"detail\":\"hello world\","
                "\"zeta\":7,\"alpha\":\"a \\\"b\\\"\",\"flag\":true,"
                "\"ratio\":0.5}"),
      std::string::npos)
      << text;
}

TEST_F(ObsTest, LogLevelFilterAndTextRendering) {
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  LogOptions options;
  options.min_level = LogLevel::kWarn;
  options.stream = out;
  std::string text;
  {
    ScopedLogConfig scoped(options);
    EXPECT_FALSE(log_enabled(LogLevel::kDebug));
    EXPECT_FALSE(log_enabled(LogLevel::kInfo));
    EXPECT_TRUE(log_enabled(LogLevel::kWarn));
    EXPECT_TRUE(log_enabled(LogLevel::kError));
    log(LogLevel::kInfo, "test", "filtered_out");
    log(LogLevel::kError, "test", "kept", "disk full",
        LogFields().str("path", "/tmp/x"));
    text = read_all(out);
  }
  std::fclose(out);
  EXPECT_EQ(text.find("filtered_out"), std::string::npos);
  EXPECT_NE(text.find("[test] error: kept: disk full path=\"/tmp/x\""),
            std::string::npos)
      << text;
}

TEST_F(ObsTest, LogRateLimitSuppressesPerChannelAndReportsOnResume) {
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  LogOptions options;
  options.json = true;
  options.stream = out;
  options.rate_limit = 2;
  options.rate_window_ms = 50;
  std::string text;
  {
    ScopedLogConfig scoped(options);
    reset_log_stats();
    for (int i = 0; i < 5; ++i)
      log(LogLevel::kInfo, "test", "spam", "n=" + std::to_string(i));
    EXPECT_EQ(log_lines_emitted(), 2u);
    EXPECT_EQ(log_lines_suppressed(), 3u);
    // A different (component, event) channel has its own budget.
    log(LogLevel::kInfo, "test", "other_event");
    EXPECT_EQ(log_lines_emitted(), 3u);
    // After the window rolls, the first line through reports what the
    // limiter swallowed — silence is never silent data loss.
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    log(LogLevel::kInfo, "test", "spam", "n=5");
    EXPECT_EQ(log_lines_emitted(), 4u);
    text = read_all(out);
  }
  std::fclose(out);
  EXPECT_NE(text.find("\"detail\":\"n=0\""), std::string::npos);
  EXPECT_NE(text.find("\"detail\":\"n=1\""), std::string::npos);
  EXPECT_EQ(text.find("\"detail\":\"n=2\""), std::string::npos);
  EXPECT_EQ(text.find("\"detail\":\"n=4\""), std::string::npos);
  EXPECT_NE(text.find("\"detail\":\"n=5\",\"suppressed\":3"),
            std::string::npos)
      << text;
  reset_log_stats();
}

TEST_F(ObsTest, FlightRingWrapsAndDumpParses) {
  const bool was_on = flight_enabled();
  reset_flight();
  set_flight_enabled(true);
  set_flight_capacity(16);
  // A fresh thread gets a fresh ring at the new capacity; 100 notes into a
  // 16-slot ring keep exactly the last 16.
  std::thread([] {
    for (int i = 0; i < 100; ++i)
      flight_note("test.flight.note", "n=" + std::to_string(i));
  }).join();
  const std::vector<FlightRecord> records = flight_snapshot();
  std::vector<const FlightRecord*> notes;
  for (const FlightRecord& r : records)
    if (std::string(r.name) == "test.flight.note") notes.push_back(&r);
  ASSERT_EQ(notes.size(), 16u);
  EXPECT_EQ(std::string(notes.front()->detail), "n=84");
  EXPECT_EQ(std::string(notes.back()->detail), "n=99");
  for (std::size_t i = 1; i < notes.size(); ++i)
    EXPECT_LT(notes[i - 1]->seq, notes[i]->seq);

  const std::string dump = flight_dump_json("unit-test");
  EXPECT_EQ(dump.rfind("{\"kind\":\"header\",\"reason\":\"unit-test\"", 0),
            0u)
      << dump.substr(0, 120);
  EXPECT_NE(dump.find("\"capacity_per_thread\":16"), std::string::npos);
  EXPECT_NE(dump.find("\"build\":{\"git_sha\":"), std::string::npos);
  EXPECT_NE(dump.find("{\"kind\":\"note\""), std::string::npos);
  EXPECT_NE(dump.find("\"detail\":\"n=99\""), std::string::npos);
  // Every line is one JSON object: braces balance per line.
  std::istringstream lines(dump);
  std::string line;
  std::size_t line_count = 0;
  while (std::getline(lines, line)) {
    ++line_count;
    int depth = 0;
    for (const char c : line) {
      if (c == '{') ++depth;
      if (c == '}') --depth;
      ASSERT_GE(depth, 0) << line;
    }
    EXPECT_EQ(depth, 0) << line;
  }
  EXPECT_EQ(line_count, 1u + records.size());

  // Capacity requests clamp to [16, 65536].
  set_flight_capacity(1);
  EXPECT_EQ(flight_capacity(), 16u);
  set_flight_capacity(std::size_t{1} << 20);
  EXPECT_EQ(flight_capacity(), 65536u);
  set_flight_capacity(256);
  set_flight_enabled(was_on);
  reset_flight();
}

TEST_F(ObsTest, TraceContextCorrelatesSpansAndDrainsSelectively) {
  set_trace_enabled(true);
  {
    TraceContextScope scope(0x42);
    EXPECT_EQ(trace_context(), 0x42u);
    { Span inner("test.ctx.tagged"); }
    {
      TraceContextScope nested(7);
      Span span("test.ctx.nested");
    }
    EXPECT_EQ(trace_context(), 0x42u);  // nested scope restored the outer
  }
  EXPECT_EQ(trace_context(), 0u);
  { Span outer("test.ctx.untagged"); }

  // Selective drain takes only the 0x42 spans and leaves the rest buffered.
  const std::vector<TraceEvent> tagged = drain_trace_context(0x42);
  ASSERT_EQ(tagged.size(), 1u);
  EXPECT_EQ(std::string(tagged[0].name), "test.ctx.tagged");
  EXPECT_EQ(tagged[0].ctx, 0x42u);
  const std::vector<TraceEvent> rest = drain_trace();
  ASSERT_EQ(rest.size(), 2u);
  for (const TraceEvent& e : rest)
    EXPECT_NE(std::string(e.name), "test.ctx.tagged");

  // The sink renders a nonzero context as a fixed-width hex arg so
  // Perfetto can filter one request out of a loaded daemon's trace.
  const std::string json = trace_json(tagged);
  EXPECT_NE(json.find("\"ctx\":\"0000000000000042\""), std::string::npos);
  set_trace_enabled(false);
}

TEST_F(ObsTest, PrometheusTextExposition) {
  registry().counter("test.prom.count").add(5);
  registry().gauge("test.prom.depth").set(3);
  Histogram& h = registry().histogram("test.prom.lat");
  h.record(0);
  h.record(6);
  const std::string text = prometheus_text(registry().snapshot());
  EXPECT_NE(
      text.find("# TYPE ucp_test_prom_count counter\nucp_test_prom_count 5\n"),
      std::string::npos)
      << text;
  EXPECT_NE(
      text.find("# TYPE ucp_test_prom_depth gauge\nucp_test_prom_depth 3\n"),
      std::string::npos);
  // Histogram buckets render as a cumulative `le` series ending in +Inf.
  EXPECT_NE(text.find("# TYPE ucp_test_prom_lat histogram\n"
                      "ucp_test_prom_lat_bucket{le=\"0\"} 1\n"
                      "ucp_test_prom_lat_bucket{le=\"7\"} 2\n"
                      "ucp_test_prom_lat_bucket{le=\"+Inf\"} 2\n"
                      "ucp_test_prom_lat_sum 6\n"
                      "ucp_test_prom_lat_count 2\n"),
            std::string::npos)
      << text;
}

TEST_F(ObsTest, BuildInfoIsStampedIntoEveryArtifact) {
  const BuildInfo& info = build_info();
  EXPECT_FALSE(info.compiler.empty());
  EXPECT_FALSE(info.build_type.empty());
  EXPECT_FALSE(info.sanitizer.empty());
  EXPECT_EQ(info.hardware_concurrency, std::thread::hardware_concurrency());

  const std::string& json = build_info_json();
  EXPECT_EQ(json.rfind("{\"git_sha\":", 0), 0u) << json;
  const std::size_t keys[] = {
      json.find("\"git_sha\":"),      json.find("\"compiler\":"),
      json.find("\"flags\":"),        json.find("\"build_type\":"),
      json.find("\"sanitizer\":"),    json.find("\"hardware_concurrency\":"),
  };
  for (std::size_t i = 1; i < std::size(keys); ++i) {
    ASSERT_NE(keys[i], std::string::npos) << json;
    EXPECT_LT(keys[i - 1], keys[i]) << json;
  }
  // The stamp is cached: one rendering per process.
  EXPECT_EQ(&build_info_json(), &json);
  // Every metrics snapshot leads with the same stamp verbatim.
  const std::string snapshot = snapshot_json(registry().snapshot());
  EXPECT_EQ(snapshot.rfind("{\"build\":" + json, 0), 0u)
      << snapshot.substr(0, 200);
}

exp::SweepOptions tiny_sweep() {
  exp::SweepOptions options;
  options.programs = {"bs", "fdct"};
  options.config_stride = 12;
  options.techs = {energy::TechNode::k45nm};
  options.threads = 2;
  options.progress_every = 0;
  return options;
}

TEST_F(ObsTest, FullInstrumentationLeavesSweepBitIdentical) {
  // The acceptance contract: --trace/--metrics observe, never perturb.
  const exp::Sweep plain = exp::run_sweep(tiny_sweep());
  const std::string fp_plain = exp::sweep_results_fingerprint(plain.results);

  set_enabled(true);
  set_trace_enabled(true);
  const exp::Sweep traced = exp::run_sweep(tiny_sweep());
  set_enabled(false);
  set_trace_enabled(false);
  const std::string fp_traced = exp::sweep_results_fingerprint(traced.results);

  EXPECT_EQ(fp_plain, fp_traced);
  ASSERT_EQ(plain.results.size(), traced.results.size());
  for (std::size_t i = 0; i < plain.results.size(); ++i) {
    EXPECT_EQ(plain.results[i].optimized.tau_wcet,
              traced.results[i].optimized.tau_wcet);
    EXPECT_EQ(plain.results[i].original.run.total_cycles,
              traced.results[i].original.run.total_cycles);
  }

  // The instrumented run actually observed all five pipeline layers (the
  // simplex, ilp.*, runs only in the tests' reference oracle).
  const std::vector<TraceEvent> events = drain_trace();
  for (const char* prefix : {"analysis.", "wcet.", "core.", "sim.", "exp."}) {
    EXPECT_TRUE(std::any_of(events.begin(), events.end(),
                            [&](const TraceEvent& e) {
                              return std::string(e.name).rfind(prefix, 0) == 0;
                            }))
        << "no span under '" << prefix << "'";
  }
  const Snapshot snapshot = registry().snapshot();
  auto counter_value = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [n, v] : snapshot.counters)
      if (n == name) return v;
    return 0;
  };
  EXPECT_GT(counter_value("analysis.cache.fixpoints"), 0u);
  EXPECT_EQ(counter_value("ilp.solve.lp_solves"), 0u);
  EXPECT_GT(counter_value("core.optimizer.runs"), 0u);
  EXPECT_GT(counter_value("sim.interp.runs"), 0u);
  EXPECT_EQ(counter_value("exp.sweep.cases"), traced.results.size());
  EXPECT_EQ(counter_value("exp.sweep.completed"), traced.report.completed);
}

TEST_F(ObsTest, AuditCountersReconcileWithRowDerivedTotals) {
  set_enabled(true);
  set_trace_enabled(true);
  const exp::Sweep sweep = exp::run_sweep(tiny_sweep());
  set_enabled(false);
  set_trace_enabled(false);
  ASSERT_TRUE(sweep.report.clean());

  // Every audited row whose program changed has its τ_w certified, and
  // carries it; fdct at k1 inserts, so the sweep exercises the certificate.
  std::uint64_t changed_rows = 0;
  for (const exp::UseCaseResult& r : sweep.results) {
    if (!r.audit.performed || r.report.insertions.empty()) continue;
    ++changed_rows;
    EXPECT_EQ(r.audit.tau_audit, r.optimized.tau_wcet) << r.program;
  }
  ASSERT_GT(changed_rows, 0u);

  const Snapshot snapshot = registry().snapshot();
  auto counter_value = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [n, v] : snapshot.counters)
      if (n == name) return v;
    return 0;
  };
  EXPECT_EQ(counter_value("exp.audit.certified"), changed_rows);
  EXPECT_LE(counter_value("exp.audit.certified"), sweep.report.audited);

  // One tech node per row here, so every certificate is one row and is
  // checked under its own span, inside the case's audit span.
  const std::vector<TraceEvent> events = drain_trace();
  const auto certify = std::count_if(
      events.begin(), events.end(), [](const TraceEvent& e) {
        return std::string(e.name) == "exp.audit.certify";
      });
  EXPECT_EQ(static_cast<std::uint64_t>(certify), changed_rows);
}

TEST_F(ObsTest, LockstepCountersReconcileOnATwoTimingSlice) {
  // k1 derives one timing for both techs (one lane with two members; fdct
  // evaluates candidates there); k33 derives two, and nsichneu evaluates
  // candidates there, so its two lanes share trials.
  exp::SweepOptions options;
  options.programs = {"fdct", "nsichneu"};
  options.config_stride = 32;  // k1, k33
  options.threads = 2;
  options.progress_every = 0;
  set_enabled(true);
  const exp::Sweep sweep = exp::run_sweep(options);
  set_enabled(false);
  ASSERT_TRUE(sweep.report.clean());
  ASSERT_EQ(sweep.results.size(), 8u);

  const Snapshot snapshot = registry().snapshot();
  auto counter_value = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [n, v] : snapshot.counters)
      if (n == name) return v;
    return 0;
  };
  EXPECT_EQ(counter_value("core.optimizer.runs"), 4u);
  EXPECT_EQ(counter_value("core.optimizer.lanes"), 6u);
  EXPECT_EQ(counter_value("core.optimizer.forks"), 0u);
  const std::uint64_t shared = counter_value("core.optimizer.shared_trials");
  EXPECT_GT(shared, 0u);
  // Two lanes per shared trial: each lane counts it as evaluated, the work
  // is done (and counted) once.
  EXPECT_EQ(counter_value("core.optimizer.candidates_evaluated"),
            counter_value("core.optimizer.incremental_reanalyses") + shared);
  EXPECT_EQ(counter_value("core.optimizer.incremental_reanalyses"),
            counter_value("analysis.incremental.trials"));
  // Rows credit shared work to the lead member, so the sweep's row sums are
  // the work done.
  EXPECT_EQ(counter_value("exp.sweep.incremental_reanalyses"),
            counter_value("core.optimizer.incremental_reanalyses"));
  EXPECT_EQ(counter_value("exp.sweep.nodes_reanalyzed"),
            counter_value("core.optimizer.nodes_reanalyzed"));
}

TEST_F(ObsTest, ForkingRunsOnConcurrentWorkersStayTheirOwn) {
  // A run's lanes, and the groups they fork into, never leave its thread:
  // concurrent runs of one forking case agree, and the registry counts
  // each run's fork once. crc at k2 with misses at 40 and at 5 cycles forks
  // after a shared acceptance.
  const ir::Program p = suite::build_benchmark("crc");
  const cache::CacheConfig config = cache::paper_cache_config("k2").config;
  const std::vector<cache::MemTiming> timings = {{1, 40, 40}, {1, 5, 40}};
  constexpr std::size_t kRuns = 4;
  std::vector<std::vector<core::OptimizationResult>> runs(kRuns);
  set_enabled(true);
  support::parallel_for_index(kRuns, 2, [&](std::size_t i, std::uint32_t) {
    runs[i] = core::optimize_prefetches(p, config, timings);
  });
  set_enabled(false);
  for (const std::vector<core::OptimizationResult>& run : runs) {
    ASSERT_EQ(run.size(), 2u);
    EXPECT_EQ(run[0].report.forks, 1u);
    for (std::size_t l = 0; l < run.size(); ++l)
      EXPECT_EQ(ir::to_text(run[l].program), ir::to_text(runs[0][l].program));
  }

  const Snapshot snapshot = registry().snapshot();
  auto counter_value = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [n, v] : snapshot.counters)
      if (n == name) return v;
    return 0;
  };
  EXPECT_EQ(counter_value("core.optimizer.runs"), kRuns);
  EXPECT_EQ(counter_value("core.optimizer.lanes"), 2 * kRuns);
  EXPECT_EQ(counter_value("core.optimizer.forks"), kRuns);
}

TEST_F(ObsTest, JournalMetricsAnnotationSurvivesResume) {
  const std::string journal = testing::TempDir() + "obs_journal." +
                              std::to_string(::getpid()) + ".journal";
  std::remove(journal.c_str());
  exp::SweepOptions options = tiny_sweep();
  options.journal_path = journal;

  set_enabled(true);
  const exp::Sweep first = exp::run_sweep(options);
  set_enabled(false);
  ASSERT_TRUE(first.report.clean());
  const std::string fp_first = exp::sweep_results_fingerprint(first.results);

  // The metrics snapshot rides in the journal as a comment line.
  bool annotated = false;
  {
    std::ifstream is(journal);
    std::string line;
    while (std::getline(is, line))
      if (line.rfind("# metrics {", 0) == 0) annotated = true;
  }
  EXPECT_TRUE(annotated);

  // A resumed run skips the comment, restores every row and reproduces the
  // fingerprint bit-for-bit.
  const exp::Sweep second = exp::run_sweep(options);
  EXPECT_EQ(second.report.resumed_rows, first.results.size());
  EXPECT_EQ(exp::sweep_results_fingerprint(second.results), fp_first);
  std::remove(journal.c_str());
}

}  // namespace
}  // namespace ucp::obs
