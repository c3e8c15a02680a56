// Process-shard campaign backend: forked worker processes fed over
// pipes, controller merging in trial-index order.
//
// Why processes at all, when the thread pool already scales? Isolation
// and crash-safety. A measurement campaign at platform scale runs for
// hours; a single trial that segfaults, leaks, or gets OOM-killed must
// not take the other 9,999 trials with it. A forked worker dying — by
// crash, kill -9, or _exit — costs exactly its own outstanding trials,
// which surface as error rows, and (because worker-crash losses are
// never checkpointed) are re-executed on resume from their index-derived
// seeds.
//
// Protocol (controller <-> forked worker, no exec — closures survive):
//
//   result pipe (worker -> controller): common/recordio frames,
//     u32 payload_len | u32 crc32(payload) | payload
//     payload: trial record (checkpoint codec)
//              | u64 wall_elapsed_ns | u64 setup | u64 run | u64 finish
//   cmd pipe (controller -> worker, Dynamic only):
//     u64 big-endian position into the pending list, one per trial;
//     EOF = no more work.
//
// The trial record is byte-for-byte what the checkpoint stores, so the
// controller hands it on for the checkpoint without re-encoding; the
// fixed 32-byte wall-clock trailer rides outside the record because
// records must stay deterministic. The worker's record carries the
// Testbed's own registry (Testbed::release_metrics), not a copy of it.
// ByIndex shares are static (worker w runs pending positions w, w+W, …).
// Dynamic keeps a fixed window of 4 positions outstanding per worker:
// the windows fill round-robin, and each frame that comes back buys its
// worker one more position, so a worker never idles while the controller
// decodes its last frame. A dead worker fails exactly the positions it
// still owed (at most the window); once no worker is left, the positions
// never handed out fail too ("no live worker left").
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "campaign/campaign.hpp"

namespace sm::campaign {

/// Receives one finished trial: its result, its metrics snapshot (null
/// when observability was off) and its checkpoint record bytes. `record`
/// is empty for a position lost to a worker death; such a row must never
/// be checkpointed, so a resume re-runs it.
using TrialDone = std::function<void(
    TrialResult, std::unique_ptr<obs::Registry>, std::span<const uint8_t>)>;

/// Executes the `pending` positions (indices into `trials`) in forked
/// worker processes and hands every position to `done` exactly once, on
/// the calling thread: as a decoded trial when its frame arrives, or as
/// an error row naming the worker's exit status when the worker died
/// first. Returns how many positions were lost that way.
size_t run_process_shards(const std::vector<Trial>& trials,
                          const CampaignOptions& options,
                          const std::vector<size_t>& pending,
                          const TrialDone& done);

}  // namespace sm::campaign
