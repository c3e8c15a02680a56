#include "campaign/procshard.hpp"

#include <poll.h>
#include <signal.h>

#include <algorithm>
#include <cerrno>
#include <deque>
#include <stdexcept>

#include "campaign/checkpoint.hpp"
#include "common/logging.hpp"
#include "common/proc.hpp"
#include "common/recordio.hpp"
#include "common/strings.hpp"

namespace sm::campaign {

namespace {

constexpr size_t kWallTrailer = 4 * 8;  // four u64 nanosecond counts
// Dynamic positions outstanding per worker. With several queued, a
// worker always has its next position in hand instead of idling through
// a pipe round-trip and the controller's decode of its last frame; a
// death costs at most this many trials.
constexpr size_t kWindow = 4;

// The controller writes Dynamic commands into pipes whose reader may
// have just been kill -9'd; that must surface as a failed write, not a
// process-fatal SIGPIPE.
struct SigpipeGuard {
  using Handler = void (*)(int);
  Handler prev;
  SigpipeGuard() { prev = ::signal(SIGPIPE, SIG_IGN); }
  ~SigpipeGuard() { ::signal(SIGPIPE, prev); }
};

struct WorkerSlot {
  common::proc::Pipe result;  // worker writes framed records
  common::proc::Pipe cmd;     // controller writes positions (Dynamic)
  pid_t pid = -1;
  common::Bytes buffer;                // unparsed result-pipe bytes
  std::deque<size_t> outstanding;      // pending positions assigned, unfinished
  bool open = true;                    // result pipe still readable
  common::proc::ExitStatus status;
};

// Worker-process body: runs its share of the pending list, streaming one
// frame per trial. Returns nonzero when the controller vanished (EPIPE)
// or the cmd stream tore mid-command.
int worker_body(const std::vector<Trial>& trials,
                const CampaignOptions& options,
                const std::vector<size_t>& pending, size_t w, size_t workers,
                int cmd_rd, int result_wr) {
  common::set_log_worker_id(static_cast<int>(w));
  common::Bytes frame;
  auto run_one = [&](size_t pos) -> bool {
    if (pos >= pending.size()) return false;
    size_t i = pending[pos];
    TrialResult slot;
    std::unique_ptr<obs::Registry> snapshot;
    execute_trial(trials[i], i, options, slot, &snapshot);
    common::Bytes payload = encode_trial_record(slot, snapshot.get());
    common::ByteWriter wall(kWallTrailer);
    for (common::Duration d : {slot.wall_elapsed, slot.wall_setup,
                               slot.wall_run, slot.wall_finish})
      wall.u64(static_cast<uint64_t>(d.count()));
    payload.insert(payload.end(), wall.data().begin(), wall.data().end());
    frame.clear();
    common::append_frame(frame, payload);
    return common::proc::write_exact(result_wr, frame.data(), frame.size());
  };
  if (options.shard == Shard::ByIndex) {
    for (size_t pos = w; pos < pending.size(); pos += workers)
      if (!run_one(pos)) return 1;
    return 0;
  }
  // Dynamic: positions arrive one u64 at a time; EOF ends the stream.
  for (;;) {
    uint8_t buf[8];
    size_t got = 0;
    while (got < sizeof buf) {
      ssize_t n = common::proc::read_some(cmd_rd, buf + got, sizeof buf - got);
      if (n == 0) return got == 0 ? 0 : 1;  // clean EOF vs torn command
      if (n < 0) return 1;
      got += static_cast<size_t>(n);
    }
    if (!run_one(common::ByteReader(buf).u64())) return 1;
  }
}

}  // namespace

size_t run_process_shards(const std::vector<Trial>& trials,
                          const CampaignOptions& options,
                          const std::vector<size_t>& pending,
                          const TrialDone& done) {
  if (pending.empty()) return 0;
  SigpipeGuard sigpipe;
  const bool dynamic = options.shard == Shard::Dynamic;
  const size_t workers =
      std::min(resolve_threads(options.threads), pending.size());

  // All pipes exist before the first fork so every child can close every
  // fd that is not its own: a stray inherited cmd write-end would keep a
  // sibling's command stream from ever reaching EOF.
  std::vector<WorkerSlot> ws(workers);
  for (WorkerSlot& slot : ws) {
    slot.result = common::proc::make_pipe();
    if (dynamic) slot.cmd = common::proc::make_pipe();
    if (!slot.result.ok() || (dynamic && !slot.cmd.ok()))
      throw std::runtime_error("process shards: pipe creation failed");
  }
  for (size_t w = 0; w < workers; ++w) {
    ws[w].pid = common::proc::fork_child([&, w]() -> int {
      for (size_t j = 0; j < workers; ++j) {
        common::proc::close_fd(ws[j].result.rd);
        common::proc::close_fd(ws[j].cmd.wr);
        if (j != w) {
          common::proc::close_fd(ws[j].result.wr);
          common::proc::close_fd(ws[j].cmd.rd);
        }
      }
      return worker_body(trials, options, pending, w, workers, ws[w].cmd.rd,
                         ws[w].result.wr);
    });
    if (ws[w].pid < 0) throw std::runtime_error("process shards: fork failed");
  }
  for (WorkerSlot& slot : ws) {
    common::proc::close_fd(slot.result.wr);
    common::proc::close_fd(slot.cmd.rd);
  }

  size_t next_pos = 0;  // first position not yet handed to a worker
  auto feed = [&](size_t w) {
    // Hand worker w one more position, or close its command stream when
    // the list is drained (positions already in the pipe are still read
    // before the EOF). A dead reader (EPIPE) is handled by the worker's
    // own EOF path, so a failed write is ignored here.
    if (!dynamic || ws[w].cmd.wr < 0) return;
    if (next_pos >= pending.size()) {
      common::proc::close_fd(ws[w].cmd.wr);
      return;
    }
    size_t pos = next_pos++;
    ws[w].outstanding.push_back(pos);
    common::ByteWriter cmd(8);
    cmd.u64(pos);
    if (!common::proc::write_exact(ws[w].cmd.wr, cmd.data().data(), cmd.size()))
      common::proc::close_fd(ws[w].cmd.wr);
  };
  if (dynamic) {
    // Fill every window round-robin; each completed frame then refills
    // its worker's window by one.
    for (size_t k = 0; k < kWindow; ++k)
      for (size_t w = 0; w < workers; ++w) feed(w);
  } else {
    for (size_t w = 0; w < workers; ++w)
      for (size_t pos = w; pos < pending.size(); pos += workers)
        ws[w].outstanding.push_back(pos);
    next_pos = pending.size();
  }

  // A position no worker finished becomes an error row — failed alone,
  // counted as lost, handed on without a record so it is never
  // checkpointed, and re-run by the next resume.
  size_t lost = 0;
  auto lose = [&](size_t pos, int worker, const std::string& error) {
    TrialResult t;
    t.index = pending[pos];
    t.name = trials[t.index].name;
    t.worker = worker;
    t.failed = true;
    t.error = error;
    ++lost;
    common::log_warn("campaign", "trial " + std::to_string(t.index) +
                                     " lost: " + t.error);
    done(std::move(t), nullptr, {});
  };

  auto record_done = [&](size_t w, std::span<const uint8_t> payload) {
    if (payload.size() < kWallTrailer)
      throw std::runtime_error("worker frame: malformed payload");
    // The record goes on byte-for-byte as the worker encoded it, so a
    // later resume decodes exactly this trial.
    std::span<const uint8_t> record =
        payload.first(payload.size() - kWallTrailer);
    common::ByteReader wall(payload.last(kWallTrailer));
    CheckpointMeta meta;
    DecodedTrial decoded;
    bool is_meta = false;
    decode_record(record, &meta, &decoded, &is_meta);
    if (is_meta) throw std::runtime_error("worker frame: unexpected meta");
    TrialResult& t = decoded.result;
    if (t.index >= trials.size())
      throw std::runtime_error("worker frame: index out of range");
    t.resumed = false;  // it ran this run, in a child
    t.worker = static_cast<int>(w);
    for (common::Duration* d :
         {&t.wall_elapsed, &t.wall_setup, &t.wall_run, &t.wall_finish})
      *d = common::Duration::nanos(static_cast<int64_t>(wall.u64()));
    // Retire the position this index came from.
    auto& out = ws[w].outstanding;
    for (auto it = out.begin(); it != out.end(); ++it) {
      if (pending[*it] == t.index) {
        out.erase(it);
        break;
      }
    }
    done(std::move(t), std::move(decoded.snapshot), record);
    feed(w);
  };

  // A worker whose stream ended (EOF, or poisoned frames) is reaped and
  // loses its unfinished positions.
  auto retire_worker = [&](size_t w, const std::string& cause) {
    WorkerSlot& slot = ws[w];
    if (!slot.open) return;
    slot.open = false;
    common::proc::close_fd(slot.result.rd);
    common::proc::close_fd(slot.cmd.wr);
    slot.status = common::proc::wait_child(slot.pid);
    if (slot.outstanding.empty() && slot.status.clean() && cause.empty())
      return;
    std::string reason = cause.empty() ? slot.status.describe() : cause;
    for (size_t pos : slot.outstanding)
      lose(pos, static_cast<int>(w),
           common::format("worker %zu %s before trial completed", w,
                          reason.c_str()));
    slot.outstanding.clear();
  };

  // A worker whose stream cannot be trusted any more is killed first, so
  // it cannot write past the poison, then retired.
  auto poison = [&](size_t w, const std::string& what, const char* cause) {
    common::log_warn("campaign",
                     "worker " + std::to_string(w) + ": " + what + ", killing");
    ::kill(ws[w].pid, SIGKILL);
    retire_worker(w, cause);
  };

  std::vector<pollfd> fds;
  std::vector<size_t> fd_owner;
  uint8_t chunk[65536];
  for (;;) {
    fds.clear();
    fd_owner.clear();
    for (size_t w = 0; w < workers; ++w) {
      if (!ws[w].open) continue;
      fds.push_back({ws[w].result.rd, POLLIN, 0});
      fd_owner.push_back(w);
    }
    if (fds.empty()) break;
    int rc = ::poll(fds.data(), fds.size(), -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("process shards: poll failed");
    }
    for (size_t k = 0; k < fds.size(); ++k) {
      if (fds[k].revents == 0) continue;
      size_t w = fd_owner[k];
      ssize_t n = common::proc::read_some(ws[w].result.rd, chunk, sizeof chunk);
      if (n > 0) {
        common::Bytes& buffer = ws[w].buffer;
        buffer.insert(buffer.end(), chunk, chunk + n);
        // Walk every complete frame, then drop them all in one erase: one
        // read can hold many frames, and erasing each in turn would move
        // the rest of the buffer once per frame. A trailing partial frame
        // waits for more bytes (or becomes a casualty at EOF).
        size_t off = 0;
        for (;;) {
          common::Frame frame =
              common::next_frame(std::span<const uint8_t>(buffer).subspan(off));
          if (frame.status == common::Frame::Short) break;
          if (frame.status == common::Frame::Oversize) {
            poison(w, "oversized frame", "sent an oversized frame");
            break;
          }
          if (frame.status == common::Frame::Corrupt) {
            poison(w, "frame checksum mismatch", "sent a corrupt frame");
            break;
          }
          try {
            record_done(w, frame.payload);
          } catch (const std::exception& e) {
            // A frame that passed its CRC but does not parse is version
            // skew or a worker bug — poison, not recoverable data.
            poison(w, e.what(), "sent an undecodable frame");
            break;
          }
          off += frame.size;
        }
        buffer.erase(buffer.begin(), buffer.begin() + off);
      } else if (n == 0) {
        retire_worker(w, "");
      } else {
        retire_worker(w, "result pipe read failed");
      }
    }
  }
  // Every worker is gone; Dynamic positions never handed out have no
  // one left to run them.
  while (next_pos < pending.size())
    lose(next_pos++, -1, "no live worker left");
  return lost;
}

}  // namespace sm::campaign
