// dbps benchmark: runs one named workload with a seed, checks its
// outputs, and prints every metric by name with its unit. The last line
// of stdout is the result JSON; the lines before it are human-readable
// (metadata, flush policy, sample counts, failed_frac, tracing overhead).
//
//   perfbench --workload manners|hub_rw|serve_mixed --seed N --seconds S
//             --trace 0|1 [--rev REV] [--work-dir DIR]
//   perfbench --selftest
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the workload
// twice — untraced in a child process, then traced with spans around
// every layer call — and prints the per-layer metrics plus the tracing
// overhead.

#include <fcntl.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "durable.h"
#include "metrics.h"
#include "passes.h"
#include "selftest.h"
#include "trace.h"

namespace perfbench {
namespace {

const char* FsType(const std::string& dir) {
  struct statfs fs {};
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    default: return "other";
  }
}

// Flushes the work directory's filesystem, so writeback left by earlier
// runs (their WAL files and deletions) does not slow this run's fsyncs.
void SyncFilesystem(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload manners|hub_rw|serve_mixed "
               "--seed N --seconds S --trace 0|1 [--rev REV] "
               "[--work-dir DIR]\n       perfbench --selftest\n");
  return 2;
}

// The result line: the last line of stdout.
void PrintResult(const PassResult& pass, const MetricSet& metrics) {
  std::printf("%s\n", ResultJson(pass.correct, pass.ops.attempted,
                                 pass.ops.failed, metrics)
                          .c_str());
  std::fflush(stdout);
}

// Runs the untraced pass in a child process, so that the traced pass
// that follows starts with a fresh heap and its own peak RSS. The child
// prints its notes and sends its metrics back over a pipe.
PassResult RunUntracedInChild(const Args& args, const std::string& dir) {
  PassResult failed;
  failed.correct = false;
  int fds[2];
  if (::pipe(fds) != 0) {
    failed.errors.push_back("pipe failed");
    return failed;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    failed.errors.push_back("fork failed");
    return failed;
  }
  if (pid == 0) {
    ::close(fds[0]);
    Tracer off(false);
    PassResult pass = RunPass(args, &off, dir);
    PrintNotes(pass);
    const std::string text = SerializePass(pass);
    size_t done = 0;
    while (done < text.size()) {
      const ssize_t n = ::write(fds[1], text.data() + done, text.size() - done);
      if (n <= 0) break;
      done += static_cast<size_t>(n);
    }
    ::close(fds[1]);
    std::fflush(stdout);
    ::_exit(done == text.size() ? 0 : 1);
  }
  ::close(fds[1]);
  std::string text;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n <= 0) break;
    text.append(buf, static_cast<size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  PassResult pass;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      !DeserializePass(text, &pass)) {
    failed.errors.push_back("the untraced pass did not complete");
    return failed;
  }
  return pass;
}

}  // namespace

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) return "";
      return argv[++i];
    };
    if (flag == "--selftest") {
      args.selftest = true;
    } else if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value().c_str());
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--rev") {
      args.rev = value();
    } else if (flag == "--work-dir") {
      args.work_dir = value();
    } else {
      return Usage();
    }
  }
  if (args.selftest) return RunSelfTest();
  if (args.seconds <= 0 ||
      (args.workload != "manners" && args.workload != "hub_rw" &&
       args.workload != "serve_mixed")) {
    return Usage();
  }

  namespace fs = std::filesystem;
  std::error_code ec;
  const std::string dir = args.work_dir + "/" + args.workload + "-s" +
                          std::to_string(args.seed) + "-p" +
                          std::to_string(::getpid());
  fs::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", dir.c_str());
    return 2;
  }

  std::printf(
      "meta {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
      "\"trace\": %d, \"nproc\": %u, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"rev\": \"%s\", \"cost_model\": \"%s\", "
      "\"flush_policy\": \"%s\", \"filesystem\": \"%s\"}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, std::thread::hardware_concurrency(),
      PERFBENCH_BUILD_TYPE, __VERSION__, args.rev.c_str(),
      CostModelNote(args.workload).c_str(), kFlushPolicy,
      FsType(args.work_dir));
  std::fflush(stdout);

  SyncFilesystem(dir);
  PassResult untraced;
  if (!args.trace) {
    Tracer off(false);
    untraced = RunPass(args, &off, dir);
    PrintNotes(untraced);
  } else {
    untraced = RunUntracedInChild(args, dir);
    for (const std::string& error : untraced.errors) {
      std::printf("ERROR: %s\n", error.c_str());
    }
  }
  int exit_code = untraced.correct ? 0 : 1;
  if (!args.trace) {
    PrintResult(untraced, untraced.e2e);
  } else {
    SyncFilesystem(dir);
    Tracer tracer(true);
    PassResult traced = RunPass(args, &tracer, dir);
    PrintNotes(traced);
    AddTraceMetrics(untraced, tracer, &traced);
    const std::string trace_file = args.work_dir + "/trace-" +
                                   args.workload + "-s" +
                                   std::to_string(args.seed) + ".tsv";
    if (!tracer.WriteTsv(trace_file)) {
      traced.errors.push_back("cannot write " + trace_file);
      traced.correct = false;
    }
    std::printf("trace: %zu spans written to %s\n", tracer.size(),
                trace_file.c_str());
    if (!traced.correct) exit_code = 1;
    traced.correct = traced.correct && untraced.correct;
    PrintResult(traced, traced.layer);
  }
  fs::remove_all(dir, ec);
  SyncFilesystem(args.work_dir);
  return exit_code;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
