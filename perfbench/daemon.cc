#include "daemon.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "harness.h"
#include "serve/client.h"

namespace perfbench {

using harmony::Status;

RunDir::RunDir(const std::string& base) {
  static std::atomic<int> counter{0};
  path_ = base + "/run-" + std::to_string(::getpid()) + "-" +
          std::to_string(counter.fetch_add(1));
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

RunDir::~RunDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

Daemon::Daemon(std::string name, std::string binary, const RunDir& dir,
               std::vector<std::string> args)
    : name_(std::move(name)),
      binary_(std::filesystem::absolute(binary).string()),
      dir_(dir.path()),
      args_(std::move(args)) {}

Daemon::~Daemon() {
  if (pid_ > 0 && !exited_) {
    ::kill(pid_, SIGKILL);
    Reap(/*block=*/true);
  }
}

Status Daemon::Start() {
  const std::string log = dir_ + "/" + name_ + ".log";
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary_.c_str()));
  for (std::string& a : args_) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();

  const pid_t pid = ::fork();
  if (pid < 0) return Status::Internal(name_ + ": fork failed");
  if (pid == 0) {
    // Child: async-signal-safe calls only until exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    if (::chdir(dir_.c_str()) != 0) ::_exit(126);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  pid_ = pid;
  return Status::Ok();
}

bool Daemon::Reap(bool block) {
  if (pid_ <= 0 || exited_) return exited_;
  int status = 0;
  const pid_t r = ::waitpid(pid_, &status, block ? 0 : WNOHANG);
  if (r == pid_) {
    exited_ = true;
    wait_status_ = status;
  }
  return exited_;
}

std::string Daemon::LogTail() const {
  std::ifstream in(dir_ + "/" + name_ + ".log");
  std::stringstream text;
  text << in.rdbuf();
  const std::string all = text.str();
  return all.size() > 400 ? all.substr(all.size() - 400) : all;
}

std::string Daemon::ExitDescription() const {
  if (WIFEXITED(wait_status_)) {
    return "exited with code " + std::to_string(WEXITSTATUS(wait_status_));
  }
  if (WIFSIGNALED(wait_status_)) {
    return "was killed by signal " + std::to_string(WTERMSIG(wait_status_));
  }
  return "ended abnormally";
}

Status Daemon::CheckAlive() {
  if (Reap(/*block=*/false)) {
    return Status::Internal("daemon " + name_ + " " + ExitDescription() +
                            "; log tail: " + LogTail());
  }
  return Status::Ok();
}

Status Daemon::WaitReady(const std::string& socket, double timeout_s) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  while (Clock::now() < deadline) {
    if (Status alive = CheckAlive(); !alive.ok()) return alive;
    harmony::serve::ServeClient client;
    if (client.ConnectUnix(SocketPath(socket)).ok() && client.Ping().ok()) {
      return Status::Ok();
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return Status::DeadlineExceeded("daemon " + name_ + " not ready after " +
                                  std::to_string(timeout_s) + " s");
}

double Daemon::PeakRssMb() const { return perfbench::PeakRssMb(pid_); }

Status Daemon::Stop(const std::string& socket, double timeout_s) {
  if (pid_ <= 0) return Status::Ok();
  Status sent = Status::Ok();
  if (!exited_) {
    harmony::serve::ServeClient client;
    sent = client.ConnectUnix(SocketPath(socket));
    if (sent.ok()) sent = client.Shutdown();
  }
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  while (!Reap(/*block=*/false) && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (!exited_) {
    ::kill(pid_, SIGKILL);
    Reap(/*block=*/true);
    return Status::DeadlineExceeded("daemon " + name_ + " hung: no exit " +
                                    std::to_string(timeout_s) +
                                    " s after the shutdown frame; killed");
  }
  if (!WIFEXITED(wait_status_) || WEXITSTATUS(wait_status_) != 0) {
    return Status::Internal("daemon " + name_ + " " + ExitDescription() +
                            "; log tail: " + LogTail());
  }
  if (!sent.ok()) {
    return Status::Internal("daemon " + name_ +
                            " refused the shutdown frame: " + sent.ToString());
  }
  return Status::Ok();
}

}  // namespace perfbench
