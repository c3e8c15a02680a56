// Thin POSIX process-lifecycle helpers for the campaign's process-shard
// backend: pipes, fork without exec, and wait-status decoding.
//
// The shapes mirror classic shell job control: a controller owns one
// command/result pipe pair per child, children are reaped with waitpid,
// and an abnormal exit (nonzero status or a signal — kill -9 included)
// is a first-class, describable outcome rather than an exception. All
// helpers retry EINTR internally.
#pragma once

#include <sys/types.h>

#include <functional>
#include <string>

namespace sm::common::proc {

/// An anonymous pipe (fds close-on-exec). Close ends you hand to the
/// other side.
struct Pipe {
  int rd = -1;
  int wr = -1;
  bool ok() const { return rd >= 0 && wr >= 0; }
};

/// Creates a pipe (O_CLOEXEC); both fds -1 on failure.
Pipe make_pipe();
void close_fd(int& fd);  // close + mark -1; no-op on -1

/// Decoded waitpid status.
struct ExitStatus {
  bool exited = false;    // child called exit/_exit
  int code = 0;           // exit code when exited
  bool signaled = false;  // child was killed by a signal
  int sig = 0;            // the signal when signaled

  bool clean() const { return exited && code == 0; }
  /// "exited 3" / "killed by signal 9" — for error rows and logs.
  std::string describe() const;
};

/// Forks; the child runs `body` and _exit()s with its return value.
/// stdio is flushed before the fork so buffered output is not emitted
/// twice. Returns the child pid, or -1 on fork failure.
pid_t fork_child(const std::function<int()>& body);

/// Blocking waitpid (EINTR-proof).
ExitStatus wait_child(pid_t pid);

/// write(2) until every byte landed; false on error (EPIPE included —
/// callers treat a vanished reader as a dead peer, not a crash).
bool write_exact(int fd, const void* data, size_t len);
/// One read(2), EINTR-retried: >0 bytes, 0 on EOF, -1 on error.
ssize_t read_some(int fd, void* buf, size_t len);

}  // namespace sm::common::proc
