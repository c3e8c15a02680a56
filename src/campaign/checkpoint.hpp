// Durable campaign checkpoints: per-trial results persisted as compact
// binary records, appended as trials complete (streaming, not
// merge-at-end), so a campaign killed at any instant resumes from its
// last completed trial and still emits byte-identical final output.
//
// Layered on common/recordio (length-prefixed, CRC-guarded frames):
//
//   record 0:  Meta  — campaign seed, trial count, workload digest,
//                      seed-derivation flag. A resume validates this
//                      before trusting any trial record: resuming one
//                      campaign's checkpoint under another's workload
//                      is corruption, not recovery.
//   record N:  Trial — the full deterministic content of one TrialResult
//                      (report, risk, sim time, provenance export) plus
//                      the trial's private metrics-registry snapshot.
//
// Only *deterministic* fields are recorded: a resumed row must be
// byte-identical to the row an uninterrupted run would have produced, so
// wall clocks, worker ids, and other run-varying diagnostics stay out
// (same rule as CampaignResult::telemetry). Trials that failed
// *deterministically* (throwing factory) are recorded — their error row
// is part of the canonical output. Trials lost to a worker crash are
// NOT recorded; a resume simply re-runs them from the trial's
// index-derived seed substreams.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "common/recordio.hpp"

namespace sm::campaign {

/// App tag in the record-file header ("campaign checkpoint").
constexpr uint16_t kCheckpointTag = 0xC4CB;

/// Campaign identity stamped into every checkpoint file.
struct CheckpointMeta {
  uint64_t campaign_seed = 0;
  uint64_t trial_count = 0;
  /// CRC-32 over the ordered trial names: a cheap but order- and
  /// content-sensitive fingerprint of the workload.
  uint32_t workload_digest = 0;
  bool derive_seeds = true;

  bool matches(const CheckpointMeta& other) const {
    return campaign_seed == other.campaign_seed &&
           trial_count == other.trial_count &&
           workload_digest == other.workload_digest &&
           derive_seeds == other.derive_seeds;
  }
  std::string describe() const;
};

uint32_t workload_digest(const std::vector<Trial>& trials);
CheckpointMeta checkpoint_meta(const std::vector<Trial>& trials,
                               const CampaignOptions& options);

/// One decoded trial record: the deterministic TrialResult fields plus
/// the trial's metrics snapshot (null when observability was off).
struct DecodedTrial {
  TrialResult result;
  std::unique_ptr<obs::Registry> snapshot;
};

/// Codec. A trial record is what goes through RecordWriter::append, and
/// what a process-shard worker sends its controller. Doubles are stored
/// as IEEE-754 bit patterns, so encode→decode→encode is a fixpoint.
common::Bytes encode_meta_record(const CheckpointMeta& meta);
common::Bytes encode_trial_record(const TrialResult& result,
                                  const obs::Registry* snapshot);
/// Throws std::runtime_error on a malformed payload (a payload that
/// passed its CRC but does not parse — version skew, not disk damage).
void decode_record(std::span<const uint8_t> payload, CheckpointMeta* meta,
                   DecodedTrial* trial, bool* is_meta);

/// A loaded checkpoint: every whole, checksum-valid trial record, keyed
/// by trial index.
struct CheckpointState {
  bool exists = false;
  bool torn = false;     // file ended mid-record (crash mid-write)
  bool corrupt = false;  // checksum failure before end of file
  uint64_t valid_bytes = 0;
  bool has_meta = false;
  CheckpointMeta meta;
  std::map<size_t, DecodedTrial> trials;
  /// Later records for an index a prior record already covered (two
  /// writers racing — prevented by sm-campaignd's lock on its --dir, but
  /// never merged silently if it happens: first record wins, duplicates
  /// counted).
  size_t duplicates = 0;
};

/// Scans and decodes `path`. Structural failures (unreadable file, bad
/// magic/version/tag, malformed record) throw std::runtime_error; a torn
/// or corrupt *tail* is normal crash recovery and is reported in the
/// returned state instead.
CheckpointState load_checkpoint(const std::string& path);

/// Opens `writer` on the checkpoint at `path`, positioned after the
/// clean prefix (truncating any torn tail), and stamps a Meta record when
/// the file is fresh; trial records then go in through writer.append
/// (encode_trial_record bytes). `state` must come from load_checkpoint on
/// the same path. Throws when an existing checkpoint's meta does not
/// match `meta` (resuming the wrong campaign must be loud) or on I/O
/// failure.
void open_checkpoint(common::RecordWriter& writer, const std::string& path,
                     const CheckpointState& state, const CheckpointMeta& meta);

}  // namespace sm::campaign
