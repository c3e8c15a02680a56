// The durable layers under the crash-safe campaign service, bottom-up:
// common/recordio (CRC-framed append-only files and their torn/corrupt
// recovery semantics, proven by truncating at every byte offset and
// flipping every body byte; the frame codec the worker pipes share), the
// checkpoint record codec
// (encode→decode→encode fixpoint, doubles as bit patterns), the
// obs::Registry binary round-trip, and a golden checkpoint fixture that
// pins the on-disk format so old checkpoints stay readable.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <span>
#include <stdexcept>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/checkpoint.hpp"
#include "common/recordio.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"

using namespace sm;

namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "sm_checkpoint_" + name + "_" +
         std::to_string(::getpid());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << bytes;
}

common::Bytes payload_of(std::string_view s) {
  return common::Bytes(s.begin(), s.end());
}

/// A scan plus every payload its visitor was handed, in order.
struct CollectedScan : common::RecordScan {
  std::vector<common::Bytes> records;
};

CollectedScan scan_collect(const std::string& path, uint16_t app_tag) {
  CollectedScan out;
  static_cast<common::RecordScan&>(out) = common::scan_records(
      path, app_tag, [&out](std::span<const uint8_t> payload) {
        out.records.emplace_back(payload.begin(), payload.end());
      });
  return out;
}

/// A TrialResult with every deterministic field away from its default.
campaign::TrialResult sample_trial(size_t index) {
  campaign::TrialResult t;
  t.index = index;
  t.name = "synthetic/\"quoted\"/overt-http";
  t.report.technique = "overt-http";
  t.report.target = "blocked.example/path";
  t.report.verdict = core::Verdict::BlockedRst;
  t.report.detail = "reset-mid-stream";
  t.report.packets_sent = 17;
  t.report.samples = 5;
  t.report.samples_blocked = 4;
  t.report.attempts = 2;
  t.report.confidence.conclusion = core::Conclusion::Blocked;
  t.report.confidence.trials = 5;
  t.report.confidence.trials_open = 1;
  t.report.confidence.trials_blocked = 4;
  t.report.confidence.trials_silent = 0;
  t.report.confidence.score = 0.8125;  // not exactly representable? it is
  t.risk.technique = "overt-http";
  t.risk.targeted_alerts = 3;
  t.risk.censored_access_alerts = 1;
  t.risk.noise_alerts = 7;
  t.risk.suspicion = 0.3333333333333333;  // NOT exactly representable
  t.risk.evaded = false;
  t.risk.investigated = true;
  t.risk.attribution_probability = 0.75;
  t.sim_elapsed = common::Duration::nanos(62'000'000'123);
  t.provenance_json = "{\"events\":[],\"total\":0}";
  return t;
}

/// A registry exercising all three kinds, labels, and non-integral
/// histogram moments.
void fill_registry(obs::Registry& reg) {
  reg.counter("sm_test_packets_total", {{"dir", "in"}}, "packets")->inc(41);
  reg.counter("sm_test_packets_total", {{"dir", "out"}}, "packets")->inc(7);
  reg.gauge("sm_test_depth", {}, "queue depth")->set(2.718281828459045);
  auto* h = reg.histogram("sm_test_latency", 0.0, 10.0, 5, {}, "latency");
  h->observe(0.1);
  h->observe(3.14159);
  h->observe(99.0);  // clamps to the top bin
}

// --- checkpoint record codec ------------------------------------------

TEST(Checkpoint, TrialRecordRoundTripIsFixpoint) {
  campaign::TrialResult t = sample_trial(42);
  obs::Registry snapshot;
  fill_registry(snapshot);

  common::Bytes first = campaign::encode_trial_record(t, &snapshot);
  campaign::CheckpointMeta meta;
  campaign::DecodedTrial decoded;
  bool is_meta = true;
  campaign::decode_record(first, &meta, &decoded, &is_meta);
  ASSERT_FALSE(is_meta);

  EXPECT_EQ(decoded.result.index, 42u);
  EXPECT_EQ(decoded.result.name, t.name);
  EXPECT_FALSE(decoded.result.failed);
  EXPECT_TRUE(decoded.result.resumed);
  EXPECT_EQ(decoded.result.report.detail, "reset-mid-stream");
  EXPECT_EQ(decoded.result.report.confidence.trials_blocked, 4u);
  EXPECT_EQ(decoded.result.risk.suspicion, t.risk.suspicion);  // bit-exact
  EXPECT_EQ(decoded.result.sim_elapsed.count(), t.sim_elapsed.count());
  EXPECT_EQ(decoded.result.provenance_json, t.provenance_json);
  ASSERT_TRUE(decoded.snapshot);
  EXPECT_EQ(decoded.snapshot->to_json(), snapshot.to_json());

  common::Bytes second =
      campaign::encode_trial_record(decoded.result, decoded.snapshot.get());
  EXPECT_EQ(first, second);
}

TEST(Checkpoint, FailedTrialRecordRoundTrips) {
  campaign::TrialResult t;
  t.index = 7;
  t.name = "synthetic/00007/overt-dns";
  t.failed = true;
  t.error = "probe factory returned null";
  common::Bytes first = campaign::encode_trial_record(t, nullptr);
  campaign::CheckpointMeta meta;
  campaign::DecodedTrial decoded;
  bool is_meta = false;
  campaign::decode_record(first, &meta, &decoded, &is_meta);
  ASSERT_FALSE(is_meta);
  EXPECT_TRUE(decoded.result.failed);
  EXPECT_EQ(decoded.result.error, t.error);
  EXPECT_FALSE(decoded.snapshot);
  EXPECT_EQ(campaign::encode_trial_record(decoded.result, nullptr), first);
}

TEST(Checkpoint, MetaRecordRoundTripsAndMatches) {
  campaign::CheckpointMeta meta;
  meta.campaign_seed = 0xDEADBEEFCAFEF00DULL;
  meta.trial_count = 10000;
  meta.workload_digest = 0x12345678;
  meta.derive_seeds = false;
  common::Bytes rec = campaign::encode_meta_record(meta);
  campaign::CheckpointMeta out;
  campaign::DecodedTrial trial;
  bool is_meta = false;
  campaign::decode_record(rec, &out, &trial, &is_meta);
  ASSERT_TRUE(is_meta);
  EXPECT_TRUE(out.matches(meta));
  meta.trial_count = 9999;
  EXPECT_FALSE(out.matches(meta));
}

TEST(Checkpoint, MalformedPayloadThrowsNotMisreads) {
  common::Bytes junk = {0x07, 0x01, 0xFF};  // unknown kind
  campaign::CheckpointMeta meta;
  campaign::DecodedTrial trial;
  bool is_meta = false;
  EXPECT_THROW(campaign::decode_record(junk, &meta, &trial, &is_meta),
               std::runtime_error);
  // Right kind, truncated body.
  campaign::TrialResult t = sample_trial(1);
  common::Bytes rec = campaign::encode_trial_record(t, nullptr);
  common::Bytes cut(rec.begin(), rec.begin() + rec.size() / 2);
  EXPECT_THROW(campaign::decode_record(cut, &meta, &trial, &is_meta),
               std::runtime_error);
}

// --- registry binary codec --------------------------------------------

TEST(Checkpoint, RegistryCodecPreservesEverySurface) {
  obs::Registry reg;
  fill_registry(reg);
  common::ByteWriter w;
  reg.encode(w);
  common::Bytes bytes = w.take();

  common::ByteReader r(bytes);
  std::unique_ptr<obs::Registry> decoded = obs::Registry::decode(r);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->to_json(), reg.to_json());
  EXPECT_EQ(decoded->to_prometheus(), reg.to_prometheus());
  EXPECT_EQ(decoded->series_count(), reg.series_count());

  // Re-encode fixpoint: exact state (including histogram moments)
  // survived, not a lossy approximation.
  common::ByteWriter w2;
  decoded->encode(w2);
  EXPECT_EQ(w2.data(), bytes);

  // And merging decoded copies behaves like merging originals — the
  // campaign metrics merge runs over decoded snapshots on resume.
  obs::Registry via_original, via_decoded;
  via_original.merge(reg);
  via_original.merge(reg);
  via_decoded.merge(*decoded);
  via_decoded.merge(*decoded);
  EXPECT_EQ(via_original.to_json(), via_decoded.to_json());
}

TEST(Checkpoint, RegistryDecodeRejectsTruncation) {
  obs::Registry reg;
  fill_registry(reg);
  common::ByteWriter w;
  reg.encode(w);
  common::Bytes bytes = w.take();
  for (size_t cut : {size_t{0}, size_t{1}, bytes.size() / 2,
                     bytes.size() - 1}) {
    common::Bytes prefix(bytes.begin(), bytes.begin() + cut);
    common::ByteReader r(prefix);
    EXPECT_THROW(obs::Registry::decode(r), std::runtime_error) << cut;
  }
}

// --- CRC-32 -----------------------------------------------------------

/// CRC-32 (IEEE 802.3, reflected) one bit at a time: the definition the
/// table-driven common::crc32 must reproduce.
uint32_t crc32_bitwise(std::span<const uint8_t> data, uint32_t seed) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (uint8_t b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesTheBitwiseDefinition) {
  EXPECT_EQ(common::crc32(std::string_view("123456789")), 0xCBF43926u);
  EXPECT_EQ(common::crc32(std::string_view()), 0u);
  common::Rng rng(0xC4C32);
  std::vector<uint8_t> buf(4096 + 64);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.next());
  const std::span<const uint8_t> all(buf);
  for (int trial = 0; trial < 400; ++trial) {
    // Random offsets and lengths cover every alignment and every tail
    // length of the 8-byte blocks; random seeds cover chaining.
    const auto data = all.subspan(rng.bounded(64), rng.bounded(4097));
    const auto seed = static_cast<uint32_t>(rng.next());
    EXPECT_EQ(common::crc32(data, seed), crc32_bitwise(data, seed)) << trial;
    const size_t cut = rng.bounded(data.size() + 1);
    EXPECT_EQ(common::crc32(data.subspan(cut),
                            common::crc32(data.first(cut), seed)),
              common::crc32(data, seed))
        << trial;
  }
}

// --- record files: torn and corrupt tails -----------------------------

TEST(RecordFile, TruncationAtEveryByteYieldsCleanPrefixOrNothing) {
  const std::string path = temp_path("trunc");
  std::vector<common::Bytes> payloads = {
      payload_of("alpha"), payload_of(""), payload_of("a longer third record"),
  };
  {
    common::RecordWriter writer;
    ASSERT_TRUE(writer.open(path, 0x1234, 0));
    for (const auto& p : payloads) ASSERT_TRUE(writer.append(p));
  }
  const std::string full = read_file(path);
  ASSERT_GT(full.size(), 8u);

  for (size_t len = 0; len <= full.size(); ++len) {
    write_file(path, full.substr(0, len));
    CollectedScan scan = scan_collect(path, 0x1234);
    if (len < 8) {
      // No whole header: structural error or (len==0) an empty-but-
      // present file is torn at the header — either way, zero records.
      EXPECT_TRUE(scan.records.empty()) << len;
      continue;
    }
    ASSERT_TRUE(scan.ok()) << len << ": " << scan.error;
    EXPECT_FALSE(scan.corrupt) << len;  // truncation tears, never corrupts
    // Every recovered record is EXACTLY an original, in order — a
    // truncated file can shorten the list but never alter a record.
    ASSERT_LE(scan.records.size(), payloads.size()) << len;
    for (size_t i = 0; i < scan.records.size(); ++i)
      EXPECT_EQ(scan.records[i], payloads[i]) << len;
    EXPECT_EQ(scan.torn, scan.valid_bytes != len) << len;
    // valid_bytes always marks a resumable clean prefix.
    EXPECT_LE(scan.valid_bytes, len) << len;
  }
  std::remove(path.c_str());
}

TEST(RecordFile, EveryBodyByteFlipIsDetectedNeverMisread) {
  const std::string path = temp_path("flip");
  std::vector<common::Bytes> payloads = {payload_of("first-payload"),
                                         payload_of("second-payload")};
  {
    common::RecordWriter writer;
    ASSERT_TRUE(writer.open(path, 0x1234, 0));
    for (const auto& p : payloads) ASSERT_TRUE(writer.append(p));
  }
  const std::string full = read_file(path);
  for (size_t i = 8; i < full.size(); ++i) {  // body bytes only
    std::string mutated = full;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x5A);
    write_file(path, mutated);
    CollectedScan scan = scan_collect(path, 0x1234);
    ASSERT_TRUE(scan.ok()) << i;
    // The flip must cost us the frame it landed in (reported as corrupt
    // or, when it inflates a length field past EOF, torn) — and every
    // record that IS returned must still be byte-exact.
    EXPECT_LT(scan.records.size(), payloads.size()) << i;
    EXPECT_TRUE(scan.corrupt || scan.torn) << i;
    for (size_t k = 0; k < scan.records.size(); ++k)
      EXPECT_EQ(scan.records[k], payloads[k]) << i;
  }
  std::remove(path.c_str());
}

TEST(RecordFile, WriterResumesAfterTornTail) {
  const std::string path = temp_path("resume");
  {
    common::RecordWriter writer;
    ASSERT_TRUE(writer.open(path, 0x1234, 0));
    ASSERT_TRUE(writer.append(payload_of("kept")));
    ASSERT_TRUE(writer.append(payload_of("casualty")));
  }
  // Tear the second frame.
  std::string full = read_file(path);
  write_file(path, full.substr(0, full.size() - 3));
  CollectedScan scan = scan_collect(path, 0x1234);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan.torn);
  ASSERT_EQ(scan.records.size(), 1u);

  // Reopen at the clean prefix and append; the torn tail is gone.
  {
    common::RecordWriter writer;
    ASSERT_TRUE(writer.open(path, 0x1234,
                            static_cast<int64_t>(scan.valid_bytes)));
    ASSERT_TRUE(writer.append(payload_of("replayed")));
  }
  CollectedScan again = scan_collect(path, 0x1234);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.torn);
  ASSERT_EQ(again.records.size(), 2u);
  EXPECT_EQ(again.records[0], payload_of("kept"));
  EXPECT_EQ(again.records[1], payload_of("replayed"));
  std::remove(path.c_str());
}

TEST(RecordFile, FaultBudgetCutsMidFrame) {
  const std::string path = temp_path("fault");
  common::RecordWriter writer;
  ASSERT_TRUE(writer.open(path, 0x1234, 0));
  ASSERT_TRUE(writer.append(payload_of("whole")));
  bool fired = false;
  writer.set_fault_budget(5, [&] { fired = true; });
  EXPECT_FALSE(writer.append(payload_of("this append is cut short")));
  EXPECT_TRUE(fired);
  EXPECT_FALSE(writer.append(payload_of("dead writer refuses")));
  writer.close();

  CollectedScan scan = scan_collect(path, 0x1234);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan.torn);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0], payload_of("whole"));
  std::remove(path.c_str());
}

TEST(RecordFile, AppTagMismatchIsStructural) {
  const std::string path = temp_path("tag");
  {
    common::RecordWriter writer;
    ASSERT_TRUE(writer.open(path, 0x1111, 0));
    ASSERT_TRUE(writer.append(payload_of("x")));
  }
  EXPECT_FALSE(scan_collect(path, 0x2222).ok());
  EXPECT_TRUE(scan_collect(path, 0x1111).ok());
  EXPECT_TRUE(scan_collect(path, 0).ok());  // 0 = any tag
  std::remove(path.c_str());
}

TEST(RecordFile, FramesStreamAcrossAndBeyondTheReadBuffer) {
  // The scanner reads 64 KiB at a time: these sizes make frames straddle
  // chunk boundaries at shifting offsets, and one frame spans several
  // chunks, so the buffer must slide and grow without losing a byte.
  const std::string path = temp_path("stream");
  std::vector<common::Bytes> payloads;
  common::Rng rng(7);
  for (size_t len : {100u, 65530u, 3u, 70000u, 0u, 200000u, 65536u, 12345u}) {
    common::Bytes p(len);
    for (auto& b : p) b = static_cast<uint8_t>(rng.next());
    payloads.push_back(std::move(p));
  }
  {
    common::RecordWriter writer;
    ASSERT_TRUE(writer.open(path, 0x1234, 0));
    for (const auto& p : payloads) ASSERT_TRUE(writer.append(p));
  }
  const std::string full = read_file(path);
  CollectedScan scan = scan_collect(path, 0x1234);
  ASSERT_TRUE(scan.ok()) << scan.error;
  EXPECT_FALSE(scan.torn);
  EXPECT_FALSE(scan.corrupt);
  EXPECT_EQ(scan.valid_bytes, full.size());
  EXPECT_EQ(scan.records, payloads);

  // Cut inside the 200,000-byte frame: the five frames before it survive.
  size_t big_start = 8;
  for (size_t i = 0; i < 5; ++i) big_start += 8 + payloads[i].size();
  write_file(path, full.substr(0, big_start + 8 + 150000));
  CollectedScan cut = scan_collect(path, 0x1234);
  ASSERT_TRUE(cut.ok()) << cut.error;
  EXPECT_TRUE(cut.torn);
  EXPECT_EQ(cut.valid_bytes, big_start);
  ASSERT_EQ(cut.records.size(), 5u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(cut.records[i], payloads[i]) << i;
  std::remove(path.c_str());
}

TEST(RecordFile, VisitorExceptionEndsTheScan) {
  const std::string path = temp_path("throw");
  {
    common::RecordWriter writer;
    ASSERT_TRUE(writer.open(path, 0x1234, 0));
    ASSERT_TRUE(writer.append(payload_of("first")));
    ASSERT_TRUE(writer.append(payload_of("second")));
  }
  size_t visits = 0;
  EXPECT_THROW(common::scan_records(path, 0x1234,
                                    [&](std::span<const uint8_t>) {
                                      ++visits;
                                      throw std::runtime_error("undecodable");
                                    }),
               std::runtime_error);
  EXPECT_EQ(visits, 1u);
  EXPECT_EQ(scan_collect(path, 0x1234).records.size(), 2u);
  std::remove(path.c_str());
}

// --- frames: the codec record files and worker pipes share -------------

TEST(RecordFrame, ShortAtEveryTruncationCorruptOnEveryFlip) {
  const common::Bytes payload = payload_of("a payload that spans crc blocks");
  common::Bytes full;
  common::append_frame(full, payload);
  ASSERT_EQ(full.size(), common::kFrameHeader + payload.size());
  const common::Frame whole = common::next_frame(full);
  ASSERT_EQ(whole.status, common::Frame::Whole);
  EXPECT_EQ(whole.size, full.size());
  EXPECT_EQ(common::Bytes(whole.payload.begin(), whole.payload.end()),
            payload);

  for (size_t len = 0; len < full.size(); ++len) {
    EXPECT_EQ(common::next_frame(std::span(full).first(len)).status,
              common::Frame::Short)
        << len;
  }
  for (size_t bit = 0; bit < full.size() * 8; ++bit) {
    common::Bytes flipped = full;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    const common::Frame f = common::next_frame(flipped);
    if (bit >= 32) {
      // A CRC or payload bit: CRC-32 catches every single-bit error.
      EXPECT_EQ(f.status, common::Frame::Corrupt) << bit;
      continue;
    }
    // A length bit moves where the frame claims to end: past the cap, past
    // the buffer, or short of the payload the CRC covers.
    const uint32_t len = static_cast<uint32_t>(payload.size()) ^
                         (1u << ((3 - bit / 8) * 8 + bit % 8));
    const common::Frame::Status want =
        len > common::kMaxPayload ? common::Frame::Oversize
        : len > payload.size()    ? common::Frame::Short
                                  : common::Frame::Corrupt;
    EXPECT_EQ(f.status, want) << bit;
  }
}

TEST(RecordFrame, LengthOverTheCapIsOversizeFromTheHeaderAlone) {
  for (uint32_t len : {common::kMaxPayload + 1, ~uint32_t{0}}) {
    common::ByteWriter header;
    header.u32(len);
    header.u32(0);
    EXPECT_EQ(common::next_frame(header.data()).status,
              common::Frame::Oversize)
        << len;
  }
  // At the cap a lone header is merely short: the payload may yet arrive.
  common::ByteWriter at_cap;
  at_cap.u32(common::kMaxPayload);
  at_cap.u32(0);
  EXPECT_EQ(common::next_frame(at_cap.data()).status, common::Frame::Short);
}

TEST(RecordFrame, BackToBackFramesWalkToExactlyTheirPayloads) {
  common::Rng rng(0xF4A3E);
  std::vector<common::Bytes> payloads;
  common::Bytes buf;
  for (int i = 0; i < 200; ++i) {
    // Mostly small payloads, empty ones among them, and a few large.
    common::Bytes p(rng.bounded(i % 10 == 0 ? 5000 : 64));
    for (uint8_t& b : p) b = static_cast<uint8_t>(rng.next());
    common::append_frame(buf, p);
    payloads.push_back(std::move(p));
  }
  std::vector<common::Bytes> walked;
  size_t off = 0;
  for (;;) {
    const common::Frame f =
        common::next_frame(std::span<const uint8_t>(buf).subspan(off));
    if (f.status != common::Frame::Whole) {
      EXPECT_EQ(f.status, common::Frame::Short);
      break;
    }
    walked.emplace_back(f.payload.begin(), f.payload.end());
    off += f.size;
  }
  EXPECT_EQ(off, buf.size());
  EXPECT_EQ(walked, payloads);
}

TEST(RecordFrame, AppendFrameIsWhatRecordWriterWrites) {
  const std::string path = temp_path("frames");
  const std::vector<common::Bytes> payloads = {
      payload_of("alpha"), payload_of(""), payload_of("a longer third one")};
  common::Bytes framed;
  {
    common::RecordWriter writer;
    ASSERT_TRUE(writer.open(path, 0x1234, 0));
    for (const auto& p : payloads) {
      ASSERT_TRUE(writer.append(p));
      common::append_frame(framed, p);
    }
  }
  const std::string file = read_file(path);
  ASSERT_GE(file.size(), 8u);
  EXPECT_EQ(common::Bytes(file.begin() + 8, file.end()), framed);
  std::remove(path.c_str());
}

// --- checkpoint files -------------------------------------------------

TEST(Checkpoint, FileRefusesForeignCampaign) {
  const std::string path = temp_path("foreign");
  campaign::CheckpointMeta mine;
  mine.campaign_seed = 1;
  mine.trial_count = 4;
  mine.workload_digest = 0xAB;
  {
    common::RecordWriter file;
    campaign::open_checkpoint(file, path, campaign::load_checkpoint(path),
                              mine);
    ASSERT_TRUE(file.append(campaign::encode_trial_record(sample_trial(0),
                                                          nullptr)));
  }
  campaign::CheckpointMeta other = mine;
  other.campaign_seed = 2;
  campaign::CheckpointState state = campaign::load_checkpoint(path);
  common::RecordWriter file;
  EXPECT_THROW(campaign::open_checkpoint(file, path, state, other),
               std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, DuplicateIndexFirstRecordWins) {
  const std::string path = temp_path("dup");
  campaign::CheckpointMeta meta;
  meta.trial_count = 4;
  {
    common::RecordWriter file;
    campaign::open_checkpoint(file, path, campaign::load_checkpoint(path),
                              meta);
    campaign::TrialResult first = sample_trial(2);
    first.report.detail = "the-first-write";
    campaign::TrialResult second = sample_trial(2);
    second.report.detail = "the-racing-write";
    ASSERT_TRUE(file.append(campaign::encode_trial_record(first, nullptr)));
    ASSERT_TRUE(file.append(campaign::encode_trial_record(second, nullptr)));
  }
  campaign::CheckpointState state = campaign::load_checkpoint(path);
  EXPECT_EQ(state.duplicates, 1u);
  ASSERT_EQ(state.trials.size(), 1u);
  EXPECT_EQ(state.trials.at(2).result.report.detail, "the-first-write");
  std::remove(path.c_str());
}

// --- golden on-disk format --------------------------------------------

std::string golden_path(const std::string& name) {
  return std::string(SM_TEST_DIR) + "/golden/" + name;
}

// Pins the complete checkpoint byte format — recordio framing, meta
// record, trial records with and without snapshot/failure. Old
// checkpoints must outlive code changes: a failure here means a resume
// of a checkpoint written by the previous build would refuse or misread.
TEST(CheckpointGolden, OnDiskFormatIsStable) {
  const std::string path = temp_path("golden");
  campaign::CheckpointMeta meta;
  meta.campaign_seed = 0x5EED0C0FFEEULL;
  meta.trial_count = 3;
  meta.workload_digest = 0xC0DE1234;
  meta.derive_seeds = true;
  {
    common::RecordWriter file;
    campaign::open_checkpoint(file, path, campaign::load_checkpoint(path),
                              meta);
    obs::Registry snapshot;
    fill_registry(snapshot);
    ASSERT_TRUE(file.append(
        campaign::encode_trial_record(sample_trial(0), &snapshot)));
    ASSERT_TRUE(
        file.append(campaign::encode_trial_record(sample_trial(1), nullptr)));
    campaign::TrialResult failed;
    failed.index = 2;
    failed.name = "synthetic/00002/overt-dns";
    failed.failed = true;
    failed.error = "probe factory returned null";
    ASSERT_TRUE(file.append(campaign::encode_trial_record(failed, nullptr)));
  }
  const std::string actual = read_file(path);
  std::remove(path.c_str());

  const std::string fixture = golden_path("campaign.ckpt");
  if (std::getenv("UPDATE_GOLDEN")) {
    write_file(fixture, actual);
    GTEST_SKIP() << "regenerated " << fixture;
  }
  std::ifstream in(fixture, std::ios::binary);
  ASSERT_TRUE(in) << "missing fixture " << fixture
                  << " (run with UPDATE_GOLDEN=1 to create it)";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), actual)
      << "checkpoint format drifted; a resume of a checkpoint written by "
         "the previous build would break. If intentional, bump the record "
         "version, regenerate with UPDATE_GOLDEN=1, and review.";
}

// The reverse direction: today's decoder reads the checked-in fixture.
TEST(CheckpointGolden, FixtureStillDecodes) {
  if (std::getenv("UPDATE_GOLDEN")) GTEST_SKIP();
  campaign::CheckpointState state =
      campaign::load_checkpoint(golden_path("campaign.ckpt"));
  ASSERT_TRUE(state.exists);
  EXPECT_FALSE(state.torn);
  EXPECT_FALSE(state.corrupt);
  ASSERT_TRUE(state.has_meta);
  EXPECT_EQ(state.meta.campaign_seed, 0x5EED0C0FFEEULL);
  EXPECT_EQ(state.meta.trial_count, 3u);
  ASSERT_EQ(state.trials.size(), 3u);
  EXPECT_EQ(state.trials.at(0).result.report.detail, "reset-mid-stream");
  ASSERT_TRUE(state.trials.at(0).snapshot);
  EXPECT_NE(state.trials.at(0).snapshot->to_json().find("sm_test_latency"),
            std::string::npos);
  EXPECT_TRUE(state.trials.at(2).result.failed);
}

}  // namespace
