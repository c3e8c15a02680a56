#include "common/proc.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

namespace sm::common::proc {

Pipe make_pipe() {
  int fds[2];
  Pipe p;
  if (::pipe2(fds, O_CLOEXEC) == 0) {
    p.rd = fds[0];
    p.wr = fds[1];
  }
  return p;
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

std::string ExitStatus::describe() const {
  if (signaled) return "killed by signal " + std::to_string(sig);
  if (exited) return "exited " + std::to_string(code);
  return "unknown status";
}

pid_t fork_child(const std::function<int()>& body) {
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t pid = ::fork();
  if (pid != 0) return pid;
  // Child. Dying on a closed result pipe must be a visible exit status
  // (the controller treats EPIPE as a dead peer), not a silent SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);
  int code = 1;
  try {
    code = body();
  } catch (...) {
    code = 1;
  }
  _exit(code);
}

ExitStatus wait_child(pid_t pid) {
  int status = 0;
  pid_t r;
  do {
    r = ::waitpid(pid, &status, 0);
  } while (r < 0 && errno == EINTR);
  ExitStatus st;
  if (r < 0) return st;
  if (WIFEXITED(status)) {
    st.exited = true;
    st.code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    st.signaled = true;
    st.sig = WTERMSIG(status);
  }
  return st;
}

bool write_exact(int fd, const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  size_t done = 0;
  while (done < len) {
    ssize_t n = ::write(fd, p + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

ssize_t read_some(int fd, void* buf, size_t len) {
  ssize_t n;
  do {
    n = ::read(fd, buf, len);
  } while (n < 0 && errno == EINTR);
  return n;
}

}  // namespace sm::common::proc
