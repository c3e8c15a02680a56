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
//   result pipe (worker -> controller), framed:
//     u32 payload_len | u32 crc32(payload) | payload
//     payload: u32 record_len | trial record (checkpoint codec)
//              | u64 wall_elapsed_ns | u64 setup | u64 run | u64 finish
//   cmd pipe (controller -> worker, Dynamic only):
//     u64 big-endian position into the pending list, one per trial;
//     EOF = no more work.
//
// The trial record inside the frame is byte-for-byte what the checkpoint
// stores, so the controller relays it to the checkpoint file without
// re-encoding; the wall-clock trailer rides outside the record because
// records must stay deterministic. The worker's record carries the
// Testbed's own registry (Testbed::release_metrics), not a copy of it.
// ByIndex shares are static (worker w runs pending positions w, w+W, …).
// Dynamic keeps a fixed window of 4 positions outstanding per worker:
// the windows fill round-robin, and each frame that comes back buys its
// worker one more position, so a worker never idles while the controller
// decodes its last frame. A dead worker fails exactly the positions it
// still owed (at most the window).
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/checkpoint.hpp"

namespace sm::campaign {

/// Executes the `pending` positions (indices into `trials`) in forked
/// worker processes, filling result.trials slots and `snapshots` as
/// framed records arrive. Each completed record is appended to
/// `checkpoint` (when non-null) before on_progress fires; worker-crash
/// casualties get error rows naming the exit status and are NOT
/// checkpointed. `completed` is the campaign-wide progress counter
/// (already primed with the resumed count).
void run_process_shards(
    const std::vector<Trial>& trials, const CampaignOptions& options,
    const std::vector<size_t>& pending, CampaignResult& result,
    std::vector<std::unique_ptr<obs::Registry>>& snapshots,
    CheckpointFile* checkpoint, std::atomic<size_t>* completed);

}  // namespace sm::campaign
