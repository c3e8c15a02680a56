#include "campaign/checkpoint.hpp"

#include <bit>
#include <stdexcept>

#include "common/strings.hpp"

namespace sm::campaign {

namespace {

// Record kinds (first payload byte).
constexpr uint8_t kKindMeta = 1;
constexpr uint8_t kKindTrial = 2;
// Bumped whenever the record layout changes; a mismatch is version skew
// and decoding must refuse rather than misread.
constexpr uint8_t kRecordVersion = 1;

void put_str(common::ByteWriter& w, std::string_view s) {
  w.u32(static_cast<uint32_t>(s.size()));
  w.text(s);
}

std::string get_str(common::ByteReader& r) {
  uint32_t len = r.u32();
  return r.text(len);
}

void put_f64(common::ByteWriter& w, double v) {
  w.u64(std::bit_cast<uint64_t>(v));
}

double get_f64(common::ByteReader& r) {
  return std::bit_cast<double>(r.u64());
}

void encode_report(common::ByteWriter& w, const core::ProbeReport& p) {
  put_str(w, p.technique);
  put_str(w, p.target);
  w.u8(static_cast<uint8_t>(p.verdict));
  put_str(w, p.detail);
  w.u64(p.packets_sent);
  w.u64(p.samples);
  w.u64(p.samples_blocked);
  w.u64(p.attempts);
  w.u8(static_cast<uint8_t>(p.confidence.conclusion));
  w.u64(p.confidence.trials);
  w.u64(p.confidence.trials_open);
  w.u64(p.confidence.trials_blocked);
  w.u64(p.confidence.trials_silent);
  put_f64(w, p.confidence.score);
}

core::ProbeReport decode_report(common::ByteReader& r) {
  core::ProbeReport p;
  p.technique = get_str(r);
  p.target = get_str(r);
  p.verdict = static_cast<core::Verdict>(r.u8());
  p.detail = get_str(r);
  p.packets_sent = static_cast<size_t>(r.u64());
  p.samples = static_cast<size_t>(r.u64());
  p.samples_blocked = static_cast<size_t>(r.u64());
  p.attempts = static_cast<size_t>(r.u64());
  p.confidence.conclusion = static_cast<core::Conclusion>(r.u8());
  p.confidence.trials = static_cast<size_t>(r.u64());
  p.confidence.trials_open = static_cast<size_t>(r.u64());
  p.confidence.trials_blocked = static_cast<size_t>(r.u64());
  p.confidence.trials_silent = static_cast<size_t>(r.u64());
  p.confidence.score = get_f64(r);
  return p;
}

void encode_risk(common::ByteWriter& w, const core::RiskReport& k) {
  put_str(w, k.technique);
  w.u64(k.targeted_alerts);
  w.u64(k.censored_access_alerts);
  w.u64(k.noise_alerts);
  put_f64(w, k.suspicion);
  w.u8(k.evaded ? 1 : 0);
  w.u8(k.investigated ? 1 : 0);
  put_f64(w, k.attribution_probability);
}

core::RiskReport decode_risk(common::ByteReader& r) {
  core::RiskReport k;
  k.technique = get_str(r);
  k.targeted_alerts = r.u64();
  k.censored_access_alerts = r.u64();
  k.noise_alerts = r.u64();
  k.suspicion = get_f64(r);
  k.evaded = r.u8() != 0;
  k.investigated = r.u8() != 0;
  k.attribution_probability = get_f64(r);
  return k;
}

}  // namespace

std::string CheckpointMeta::describe() const {
  return common::format("seed=%llx trials=%llu digest=%08x derive=%d",
                        static_cast<unsigned long long>(campaign_seed),
                        static_cast<unsigned long long>(trial_count),
                        workload_digest, derive_seeds ? 1 : 0);
}

uint32_t workload_digest(const std::vector<Trial>& trials) {
  uint32_t crc = 0;
  for (const Trial& t : trials) {
    crc = common::crc32(t.name, crc);
    crc = common::crc32(std::string_view("\n"), crc);
  }
  return crc;
}

CheckpointMeta checkpoint_meta(const std::vector<Trial>& trials,
                               const CampaignOptions& options) {
  CheckpointMeta meta;
  meta.campaign_seed = options.campaign_seed;
  meta.trial_count = trials.size();
  meta.workload_digest = workload_digest(trials);
  meta.derive_seeds = options.derive_seeds;
  return meta;
}

common::Bytes encode_meta_record(const CheckpointMeta& meta) {
  common::ByteWriter w(64);
  w.u8(kKindMeta);
  w.u8(kRecordVersion);
  w.u64(meta.campaign_seed);
  w.u64(meta.trial_count);
  w.u32(meta.workload_digest);
  w.u8(meta.derive_seeds ? 1 : 0);
  return w.take();
}

common::Bytes encode_trial_record(const TrialResult& result,
                                  const obs::Registry* snapshot) {
  common::ByteWriter w(256);
  w.u8(kKindTrial);
  w.u8(kRecordVersion);
  w.u64(result.index);
  put_str(w, result.name);
  w.u8(result.failed ? 1 : 0);
  if (result.failed) {
    put_str(w, result.error);
  } else {
    encode_report(w, result.report);
    encode_risk(w, result.risk);
    w.u64(std::bit_cast<uint64_t>(result.sim_elapsed.count()));
    put_str(w, result.provenance_json);
  }
  if (snapshot != nullptr) {
    w.u8(1);
    snapshot->encode(w);
  } else {
    w.u8(0);
  }
  return w.take();
}

void decode_record(std::span<const uint8_t> payload, CheckpointMeta* meta,
                   DecodedTrial* trial, bool* is_meta) {
  common::ByteReader r(payload);
  uint8_t kind = r.u8();
  uint8_t version = r.u8();
  if (!r.ok() || (kind != kKindMeta && kind != kKindTrial) ||
      version != kRecordVersion) {
    throw std::runtime_error("checkpoint record: unknown kind/version");
  }
  if (kind == kKindMeta) {
    *is_meta = true;
    meta->campaign_seed = r.u64();
    meta->trial_count = r.u64();
    meta->workload_digest = r.u32();
    meta->derive_seeds = r.u8() != 0;
    if (!r.ok()) throw std::runtime_error("checkpoint meta: truncated");
    return;
  }
  *is_meta = false;
  TrialResult& t = trial->result;
  t.index = static_cast<size_t>(r.u64());
  t.name = get_str(r);
  t.failed = r.u8() != 0;
  if (t.failed) {
    t.error = get_str(r);
  } else {
    t.report = decode_report(r);
    t.risk = decode_risk(r);
    t.sim_elapsed = common::Duration(std::bit_cast<int64_t>(r.u64()));
    t.provenance_json = get_str(r);
  }
  t.resumed = true;
  if (r.u8() != 0) {
    trial->snapshot = obs::Registry::decode(r);
  }
  if (!r.ok()) throw std::runtime_error("checkpoint trial: truncated");
}

CheckpointState load_checkpoint(const std::string& path) {
  CheckpointState state;
  // Each payload decodes straight out of the scan's payload buffer: the
  // file and the payloads are never held alongside the decoded trials.
  common::RecordScan scan = common::scan_records(
      path, kCheckpointTag, [&state](std::span<const uint8_t> payload) {
        bool is_meta = false;
        CheckpointMeta meta;
        DecodedTrial trial;
        decode_record(payload, &meta, &trial, &is_meta);
        if (is_meta) {
          if (!state.has_meta) {
            state.meta = meta;
            state.has_meta = true;
          }
          return;
        }
        size_t index = trial.result.index;
        if (!state.trials.try_emplace(index, std::move(trial)).second)
          ++state.duplicates;
      });
  if (!scan.ok()) throw std::runtime_error("checkpoint: " + scan.error);
  state.exists = scan.exists;
  state.torn = scan.torn;
  state.corrupt = scan.corrupt;
  state.valid_bytes = scan.valid_bytes;
  return state;
}

void open_checkpoint(common::RecordWriter& writer, const std::string& path,
                     const CheckpointState& state, const CheckpointMeta& meta) {
  if (state.has_meta && !state.meta.matches(meta)) {
    throw std::runtime_error(
        "checkpoint " + path + " belongs to a different campaign (" +
        state.meta.describe() + " vs " + meta.describe() + ")");
  }
  int64_t valid = static_cast<int64_t>(state.valid_bytes);
  if (!writer.open(path, kCheckpointTag, state.has_meta ? valid : 0) ||
      (!state.has_meta && !writer.append(encode_meta_record(meta)))) {
    throw std::runtime_error("checkpoint: " + writer.error());
  }
}

}  // namespace sm::campaign
