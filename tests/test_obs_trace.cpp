#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <utility>

#include "obs/sink.hpp"
#include "schemes/skyscraper.hpp"
#include "sim/simulator.hpp"
#include "util/contracts.hpp"

namespace vodbcast::obs {
namespace {

TraceEvent at(double t, EventKind kind = EventKind::kClientArrival) {
  TraceEvent e;
  e.sim_time_min = t;
  e.kind = kind;
  return e;
}

TEST(TracerTest, RecordsUpToCapacity) {
  Tracer tracer(4);
  for (int i = 0; i < 3; ++i) {
    tracer.record(at(static_cast<double>(i)));
  }
  EXPECT_EQ(tracer.size(), 3U);
  EXPECT_EQ(tracer.recorded(), 3U);
  EXPECT_EQ(tracer.dropped(), 0U);
}

TEST(TracerTest, WraparoundKeepsNewestAndCountsDropped) {
  Tracer tracer(4);
  for (int i = 0; i < 10; ++i) {
    tracer.record(at(static_cast<double>(i)));
  }
  EXPECT_EQ(tracer.size(), 4U);
  EXPECT_EQ(tracer.recorded(), 10U);
  EXPECT_EQ(tracer.dropped(), 6U);
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 4U);
  // The four newest survive: 6, 7, 8, 9.
  EXPECT_DOUBLE_EQ(events.front().sim_time_min, 6.0);
  EXPECT_DOUBLE_EQ(events.back().sim_time_min, 9.0);
}

TEST(TracerTest, EventsAreOrderedBySimTime) {
  Tracer tracer(16);
  tracer.record(at(5.0));
  tracer.record(at(1.0));
  tracer.record(at(3.0, EventKind::kTuneIn));
  tracer.record(at(3.0, EventKind::kJitter));  // equal time: stable order
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 4U);
  EXPECT_DOUBLE_EQ(events[0].sim_time_min, 1.0);
  EXPECT_DOUBLE_EQ(events[1].sim_time_min, 3.0);
  EXPECT_EQ(events[1].kind, EventKind::kTuneIn);
  EXPECT_EQ(events[2].kind, EventKind::kJitter);
  EXPECT_DOUBLE_EQ(events[3].sim_time_min, 5.0);
}

TEST(TracerTest, ClearResets) {
  Tracer tracer(2);
  tracer.record(at(1.0));
  tracer.record(at(2.0));
  tracer.record(at(3.0));
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0U);
  EXPECT_EQ(tracer.recorded(), 0U);
  EXPECT_EQ(tracer.dropped(), 0U);
}

TEST(TracerTest, RejectsZeroCapacity) {
  EXPECT_THROW(Tracer(0), util::ContractViolation);
}

TEST(TracerTest, JsonlRoundTripsFields) {
  Tracer tracer(8);
  TraceEvent e;
  e.sim_time_min = 2.5;
  e.kind = EventKind::kSegmentDownloadStart;
  e.channel = 3;
  e.video = 7;
  e.client = 11;
  e.value = 4.0;
  tracer.record(e);
  const std::string jsonl = tracer.to_jsonl();
  EXPECT_EQ(jsonl,
            "{\"t\":2.5,\"event\":\"segment_download_start\",\"channel\":3,"
            "\"video\":7,\"client\":11,\"value\":4}\n");
}

TEST(TracerTest, JsonlHasOneObjectPerLineInTimeOrder) {
  Tracer tracer(8);
  tracer.record(at(2.0));
  tracer.record(at(1.0, EventKind::kTuneIn));
  const std::string jsonl = tracer.to_jsonl();
  std::istringstream lines(jsonl);
  std::string line;
  double last = -1.0;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    const auto pos = line.find("\"t\":");
    ASSERT_NE(pos, std::string::npos);
    const double t = std::stod(line.substr(pos + 4));
    EXPECT_GE(t, last);
    last = t;
    ++n;
  }
  EXPECT_EQ(n, 2U);
}

// Structural validation of the Chrome trace-event export: one top-level
// object, a traceEvents array, every event carrying the mandatory ph/ts/pid
// fields, balanced delimiters.
TEST(TracerTest, ChromeTraceIsStructurallyValid) {
  Tracer tracer(8);
  tracer.record(at(1.0, EventKind::kChannelSlotStart));
  TraceEvent dl = at(2.0, EventKind::kSegmentDownloadStart);
  dl.value = 4.0;  // minutes -> must become a "X" span with dur
  tracer.record(dl);
  const std::string json = tracer.to_chrome_trace();
  EXPECT_EQ(json.find('{'), 0U);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// sim::simulate's arrival path is the tracer's one writer, and these are
// its six kinds; every other record is a span.
TEST(TracerTest, EveryEventKindHasAName) {
  const std::pair<EventKind, const char*> kinds[] = {
      {EventKind::kClientArrival, "client_arrival"},
      {EventKind::kTuneIn, "tune_in"},
      {EventKind::kSegmentDownloadStart, "segment_download_start"},
      {EventKind::kSegmentDownloadEnd, "segment_download_end"},
      {EventKind::kJitter, "jitter"},
      {EventKind::kChannelSlotStart, "channel_slot_start"}};
  for (const auto& [kind, name] : kinds) {
    EXPECT_STREQ(to_string(kind), name);
  }
}

// End-to-end: a simulated SB run must produce a chronologically coherent
// stream of typed events (arrivals before their tune-ins, channel slots
// present, no jitter for a correct scheme).
TEST(TracerTest, SimulationEmitsCoherentEventStream) {
  const schemes::SkyscraperScheme sb(52);
  const schemes::DesignInput input{
      core::MbitPerSec{300.0}, 10,
      core::VideoParams{core::Minutes{120.0}, core::MbitPerSec{1.5}}};
  Sink sink;
  sim::SimulationConfig config;
  config.horizon = core::Minutes{60.0};
  config.arrivals_per_minute = 2.0;
  config.plan_clients = true;
  config.sink = &sink;
  const auto report = sim::simulate(sb, input, config);
  ASSERT_GT(report.clients_served, 0U);

  const auto events = sink.trace.events();
  ASSERT_FALSE(events.empty());
  std::size_t arrivals = 0;
  std::size_t tune_ins = 0;
  std::size_t slots = 0;
  double last = -1.0;
  for (const auto& e : events) {
    EXPECT_GE(e.sim_time_min, last);
    last = e.sim_time_min;
    switch (e.kind) {
      case EventKind::kClientArrival:
        ++arrivals;
        break;
      case EventKind::kTuneIn:
        ++tune_ins;
        EXPECT_GE(e.value, 0.0);  // wait is non-negative
        break;
      case EventKind::kChannelSlotStart:
        ++slots;
        break;
      case EventKind::kJitter:
        ADD_FAILURE() << "correct scheme must not trace jitter";
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(arrivals, report.clients_served);
  EXPECT_EQ(tune_ins, report.clients_served);
  EXPECT_GT(slots, 0U);
}

}  // namespace
}  // namespace vodbcast::obs
