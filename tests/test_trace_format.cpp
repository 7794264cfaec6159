// Trace format pins: round-trip fidelity, exact replay offsets, a
// byte-exact golden file, partition invariance of captured runs (and
// equality with the deleted heap engine's bytes, see tests/pins.h),
// and first-divergence localization under single-bit corruption.
//
// The golden constants pin the on-disk format itself (magic, frame
// layout, varint/zigzag/XOR-delta encoding, 64 KiB frame threshold).
// Any intentional format change must bump the magic AND these constants.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "exp/exp.h"
#include "pins.h"
#include "trace/diff.h"
#include "trace/format.h"
#include "trace/reader.h"
#include "trace/writer.h"

namespace ftgcs {
namespace {

using exp::AxisValue;
using exp::ScenarioSpec;
using pins::fnv1a;
using pins::read_file;

// Trace-byte fingerprints of the heap engine's captured runs, recorded at
// the last commit that had it: large_ring and large_torus at clusters=64,
// seed 1 (the heap's bytes were identical at every shard count).
constexpr std::uint64_t kRing64HeapTracePin = 0xc07e048ad350d593ull;
constexpr std::uint64_t kTorus64HeapTracePin = 0x72a526d28439c0beull;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

/// Deterministic synthetic stream exercising every record kind, varint
/// widths from 1 byte up, and non-monotone value payloads. All arithmetic
/// is exact in IEEE-754, so the bytes are platform-independent.
std::vector<trace::Record> golden_records(int n) {
  std::vector<trace::Record> records;
  records.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    trace::Record r;
    r.at = i * (1.0 / 3.0);
    r.sender = (i * 131) % 3000;
    r.dest = (i * 17) % 3000;
    r.kind = static_cast<std::uint8_t>(i % 4);
    r.level = trace::kind_has_level(r.kind) ? (i % 97) : 0;
    r.value = trace::kind_has_value(r.kind) ? i * 1.25 - 3.0 : 0.0;
    records.push_back(r);
  }
  return records;
}

void write_trace(const std::string& path,
                 const std::vector<trace::Record>& records,
                 std::vector<std::uint64_t>* predicted_offsets = nullptr) {
  trace::TraceWriter writer(path);
  for (const trace::Record& r : records) {
    if (predicted_offsets != nullptr) {
      predicted_offsets->push_back(writer.next_record_offset());
    }
    writer.append(r);
  }
  writer.finish();
}

TEST(TraceFormat, RoundTripAllKinds) {
  const std::string path = temp_path("roundtrip.ftr");
  const std::vector<trace::Record> records = golden_records(200);
  write_trace(path, records);

  trace::TraceReader reader(path);
  trace::Record decoded;
  for (std::size_t i = 0; i < records.size(); ++i) {
    ASSERT_TRUE(reader.next(decoded)) << "record " << i;
    EXPECT_EQ(decoded.seq, i);
    EXPECT_TRUE(trace::record_equal(decoded, records[i])) << "record " << i;
    EXPECT_EQ(decoded.at, records[i].at);
    EXPECT_EQ(decoded.level, records[i].level);
    EXPECT_EQ(decoded.value, records[i].value);
  }
  EXPECT_FALSE(reader.next(decoded));  // validates the trailer
  EXPECT_EQ(reader.records_read(), records.size());
}

TEST(TraceFormat, MultiFrameReplayOffsetsAreExact) {
  // ~10 bytes/record × 20000 pushes well past the 64 KiB frame threshold,
  // so several frame boundaries land mid-stream.
  const std::string path = temp_path("frames.ftr");
  const std::vector<trace::Record> records = golden_records(20000);
  std::vector<std::uint64_t> predicted;
  write_trace(path, records, &predicted);

  trace::TraceReader reader(path);
  trace::Record decoded;
  std::size_t i = 0;
  while (reader.next(decoded)) {
    ASSERT_LT(i, predicted.size());
    // The writer's cursor (taken while the frame was still buffered) must
    // equal the reader's decoded position — that is the replay contract.
    EXPECT_EQ(decoded.offset, predicted[i]) << "record " << i;
    ++i;
  }
  EXPECT_EQ(i, records.size());
}

TEST(TraceFormat, GoldenFilePin) {
  const std::string path = temp_path("golden.ftr");
  write_trace(path, golden_records(10000));
  const std::string bytes = read_file(path);
  EXPECT_EQ(bytes.size(), 140629u);
  EXPECT_EQ(fnv1a(bytes), 0x995424e37ba0394cull);

  trace::TraceReader reader(path);
  trace::Record record;
  while (reader.next(record)) {
  }
  EXPECT_EQ(reader.records_read(), 10000u);
}

TEST(TraceFormat, CapturedRunBytesIdenticalAcrossShardsAndHeapPin) {
  exp::register_builtin_scenarios();
  ScenarioSpec spec = *exp::Registry::instance().find("large_ring");
  spec.axes = {{"clusters", {AxisValue::of(64)}}};
  apply_axis(spec, "clusters", 64.0);

  const auto run_with = [&](int shards, const std::string& path) {
    ScenarioSpec s = spec;
    s.shards = shards;
    s.trace_path = path;
    const exp::RunResult result = run_point(s, 1);
    EXPECT_TRUE(result.trace.enabled);
    EXPECT_GT(result.trace.records, 0.0);
    return read_file(path);
  };

  const std::string base = run_with(1, temp_path("id_s1.ftr"));
  EXPECT_EQ(base, run_with(2, temp_path("id_s2.ftr")));
  EXPECT_EQ(base, run_with(4, temp_path("id_s4.ftr")));
  EXPECT_EQ(fnv1a(base), kRing64HeapTracePin);
}

// The batch-run and narrow-lane pin: a monitored `large_torus` slice (the
// heaviest registered workload per round, the one both mechanisms exist
// for) must stream byte-identical traces at --shards 1 and 2,
// ftgcs_trace's differ must agree, and the bytes must equal the heap
// engine's (which fired every delivery in exact order as a wide entry).
// The counter assertions prove the ordered batch channel and the 16 B
// narrow lane actually carried traffic — without them this would silently
// degrade into re-pinning the single-pop, wide paths.
TEST(TraceFormat, TorusMonitoredSliceIdenticalAcrossShardsViaBatchRuns) {
  exp::register_builtin_scenarios();
  ScenarioSpec spec = *exp::Registry::instance().find("large_torus");
  spec.axes = {{"clusters", {AxisValue::of(64)}}};
  apply_axis(spec, "clusters", 64.0);

  const auto run_with = [&](int shards, const std::string& path) {
    ScenarioSpec s = spec;
    s.shards = shards;
    s.trace_path = path;
    const exp::RunResult result = run_point(s, 1);
    EXPECT_TRUE(result.trace.enabled);
    EXPECT_GT(result.trace.records, 0.0);
    // Pure-receive pulses drained through the ordered batch channel.
    EXPECT_GT(result.queue.ordered_run_events, 0.0) << "shards=" << shards;
    // Broadcast fan-outs rode the narrow lane via coalesced group inserts.
    EXPECT_GT(result.queue.narrow_events, 0.0) << "shards=" << shards;
    EXPECT_GT(result.queue.group_inserts, 0.0) << "shards=" << shards;
    return read_file(path);
  };

  const std::string path_s1 = temp_path("torus_s1.ftr");
  const std::string path_s2 = temp_path("torus_s2.ftr");
  const std::string base = run_with(1, path_s1);
  EXPECT_EQ(base, run_with(2, path_s2));
  EXPECT_EQ(fnv1a(base), kTorus64HeapTracePin);

  const trace::TraceDiff diff = trace::diff_traces(path_s1, path_s2);
  EXPECT_TRUE(diff.identical) << diff.reason;
  EXPECT_GT(diff.records_compared, 0u);
}

TEST(TraceFormat, DiffLocalizesSingleBitCorruption) {
  const std::string path_a = temp_path("diff_a.ftr");
  const std::string path_b = temp_path("diff_b.ftr");
  const std::vector<trace::Record> records = golden_records(500);
  std::vector<std::uint64_t> offsets;
  write_trace(path_a, records, &offsets);
  write_trace(path_b, records);

  ASSERT_TRUE(trace::diff_traces(path_a, path_b).identical);

  // Flip one bit in record 321's first byte (its kind tag). Every later
  // record garbles too (the XOR-delta time chain), but the report must
  // localize the FIRST divergence to exactly this record and offset.
  const std::uint64_t target = offsets[321];
  {
    std::fstream file(path_b,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(static_cast<std::streamoff>(target));
    char byte = 0;
    file.get(byte);
    byte = static_cast<char>(byte ^ 0x01);
    file.seekp(static_cast<std::streamoff>(target));
    file.put(byte);
  }

  const trace::TraceDiff diff = trace::diff_traces(path_a, path_b);
  EXPECT_FALSE(diff.identical);
  EXPECT_EQ(diff.seq, 321u);
  EXPECT_EQ(diff.records_compared, 321u);
  EXPECT_EQ(diff.offset_a, target);
  EXPECT_EQ(diff.offset_b, target);
  EXPECT_FALSE(diff.reason.empty());
}

TEST(TraceFormat, ReaderRejectsTruncationAndBadMagic) {
  const std::string path = temp_path("trunc.ftr");
  write_trace(path, golden_records(100));
  std::string bytes = read_file(path);

  // Drop the trailer + end marker: decoding must fail loudly, not EOF.
  const std::string cut = path + ".cut";
  {
    std::ofstream out(cut, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamoff>(bytes.size() - 16));
  }
  trace::TraceReader reader(cut);
  trace::Record record;
  EXPECT_THROW(
      {
        while (reader.next(record)) {
        }
      },
      std::runtime_error);

  const std::string garbage = path + ".magic";
  {
    std::ofstream out(garbage, std::ios::binary);
    out << "NOTATRACE";
  }
  EXPECT_THROW(trace::TraceReader bad(garbage), std::runtime_error);
}

}  // namespace
}  // namespace ftgcs
