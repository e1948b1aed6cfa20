#ifndef PERFBENCH_DAEMON_H_
#define PERFBENCH_DAEMON_H_

// harmony_serve child processes and the per-run directory they live in.

#include <sys/types.h>

#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// A fresh directory for one run's sockets, logs and cache dirs. Removed,
/// with everything in it, when the object is destroyed.
class RunDir {
 public:
  /// Creates `<base>/run-<pid>-<n>`.
  explicit RunDir(const std::string& base);
  ~RunDir();
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;

  const std::string& path() const { return path_; }
  std::string File(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

/// One harmony_serve process. It runs with the run directory as its working
/// directory, so socket and cache-dir arguments are short relative paths
/// (a Unix socket path must fit in 108 bytes). stdout/stderr go to
/// `<name>.log` there. The child gets SIGKILL if this process dies first.
class Daemon {
 public:
  Daemon(std::string name, std::string binary, const RunDir& dir,
         std::vector<std::string> args);
  /// Kills and reaps a daemon that was not stopped.
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  harmony::Status Start();

  /// Polls until `socket` (relative to the run directory) answers a ping,
  /// failing with the daemon's name when it exits or the timeout passes.
  harmony::Status WaitReady(const std::string& socket, double timeout_s);

  /// Sends the shutdown frame over `socket` and waits (bounded) for a clean
  /// exit. A daemon that hangs is killed, and one that crashed or exits
  /// non-zero is reported, by name, as the error.
  harmony::Status Stop(const std::string& socket, double timeout_s);

  /// Error naming the daemon when it is no longer running.
  harmony::Status CheckAlive();

  /// The daemon's peak resident set (VmHWM) in MiB, read from /proc.
  double PeakRssMb() const;

  std::string SocketPath(const std::string& socket) const {
    return dir_ + "/" + socket;
  }

 private:
  /// Reaps the child if it has exited; true when it has.
  bool Reap(bool block);
  std::string ExitDescription() const;
  /// The end of the daemon's log, quoted in failures (the run directory and
  /// the log with it are removed when the run ends).
  std::string LogTail() const;

  std::string name_;
  std::string binary_;
  std::string dir_;
  std::vector<std::string> args_;
  pid_t pid_ = -1;
  bool exited_ = false;
  int wait_status_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_DAEMON_H_
