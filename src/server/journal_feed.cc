#include "server/journal_feed.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <thread>
#include <utility>

#include "audit/audit_record.h"
#include "lang/journal.h"
#include "lang/printer.h"
#include "util/failpoint.h"
#include "wm/working_memory.h"

namespace dbps {

const char* JournalOpenModeToString(JournalOpenMode mode) {
  switch (mode) {
    case JournalOpenMode::kAppend: return "append";
    case JournalOpenMode::kTruncate: return "truncate";
    case JournalOpenMode::kFailIfExists: return "fail-if-exists";
  }
  return "?";
}

JournalFeed::~JournalFeed() {
  if (flusher_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      flusher_stop_ = true;
    }
    flusher_cv_.notify_all();
    flusher_.join();  // the flusher writes what was released, then exits
  }
  if (fd_ >= 0) ::close(fd_);
}

EngineObserver JournalFeed::MakeObserver(EngineObserver next) {
  return [this, next = std::move(next)](const EngineEvent& event) {
    switch (event.kind) {
      case EngineEvent::Kind::kCommit:
        if (event.delta != nullptr) {
          AppendLine(*event.delta, event.seq, event.audit);
        }
        break;
      case EngineEvent::Kind::kBatchEnd:
        ReleaseBatch(event.seq);
        break;
      case EngineEvent::Kind::kRunEnd:
        Drain();
        break;
      case EngineEvent::Kind::kAbort:
      case EngineEvent::Kind::kStale:
        break;
    }
    if (next) next(event);
  };
}

void JournalFeed::Append(const Delta& delta) {
  // Cursor-only use (no engine seq available): synthesize the dense seq.
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t seq = durable_options_.start_seq + lines_.size();
  lock.unlock();
  AppendLine(delta, seq, nullptr);
}

void JournalFeed::AppendLine(const Delta& delta, uint64_t seq,
                             const TxnAudit* audit) {
  auto line_or = AuditedJournalLine(delta, seq, audit);
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!line_or.ok()) {
      ++serialize_errors_;
      return;
    }
    lines_.push_back(line_or.ValueOrDie());
    if (durable_enabled_) {
      WalRecord record;
      record.seq = seq;
      record.type = WalRecordType::kDelta;
      record.payload = std::move(line_or).ValueOrDie();
      ++records_since_checkpoint_;
      if (durable_options_.group_commit) {
        staged_.push_back(std::move(record));
      } else {
        // Per-commit fsync mode: every commit is its own group of one,
        // durable before the commit stage moves on.
        released_.push_back(std::move(record));
        FlushReleased(lock);
      }
    }
  }
  cv_.notify_all();
}

void JournalFeed::ReleaseBatch(uint64_t seq) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!durable_enabled_) return;
  for (WalRecord& record : staged_) released_.push_back(std::move(record));
  staged_.clear();
  // Checkpoints only here: at the batch boundary the working memory IS
  // the replay of every record released so far (the head thread applied
  // all earlier commits, none of the next batch started), so `seq` is an
  // exact fence. Rendering needs no feed state, so mu_ is dropped for it;
  // nothing can be appended meanwhile, because the engine's commit stage
  // is this thread.
  const WorkingMemory* wm = checkpoint_wm_;
  const bool due =
      wm != nullptr && !sync_failed_ &&
      (checkpoint_requested_.load(std::memory_order_acquire) ||
       (durable_options_.checkpoint_every > 0 &&
        records_since_checkpoint_ >= durable_options_.checkpoint_every));
  if (due) {
    lock.unlock();
    auto payload_or = CheckpointToSource(*wm, seq);
    lock.lock();
    checkpoint_requested_.store(false, std::memory_order_release);
    if (payload_or.ok()) {
      WalRecord record;
      record.seq = seq;
      record.type = WalRecordType::kCheckpoint;
      record.payload = std::move(payload_or).ValueOrDie();
      released_.push_back(std::move(record));
      records_since_checkpoint_ = 0;
    } else {
      // Unprintable state (printer limits). Nothing reaches the log, so
      // it has no hole — count it and try again at a later boundary.
      ++durability_stats_.checkpoint_render_failures;
    }
  }
  if (released_.empty()) return;
  if (durable_options_.group_commit) {
    lock.unlock();
    flusher_cv_.notify_one();
  } else {
    FlushReleased(lock);
  }
}

void JournalFeed::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] {
    return sync_failed_ || (released_.empty() && !flushing_);
  });
}

void JournalFeed::FlushReleased(std::unique_lock<std::mutex>& lock) {
  cv_.wait(lock, [&] { return !flushing_; });  // one group at the device
  if (released_.empty()) return;
  std::vector<WalRecord> group;
  group.swap(released_);
  GroupOutcome outcome;
  if (sync_failed_) {
    // Sticky: the log already has a hole, so nothing after it may be
    // written or acknowledged.
    outcome.failed = true;
  } else {
    flushing_ = true;
    lock.unlock();
    const auto start = std::chrono::steady_clock::now();
    outcome = WriteGroup(group);
    const uint64_t took_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    lock.lock();
    flushing_ = false;
    if (!outcome.failed) {
      durability_stats_.sync_ns += took_ns;
      durability_stats_.max_sync_ns =
          std::max(durability_stats_.max_sync_ns, took_ns);
    }
  }
  durability_stats_.bytes_written += outcome.bytes;
  if (outcome.crashed) ++durability_stats_.injected_crashes;
  if (outcome.failed) {
    sync_failed_ = true;
    ++durability_stats_.sync_failures;
  } else {
    uint64_t deltas = 0;
    for (const WalRecord& record : group) {
      if (record.type == WalRecordType::kCheckpoint) {
        ++durability_stats_.checkpoints_written;
        durable_seq_ = std::max(durable_seq_, record.seq);
      } else {
        ++deltas;
        durable_seq_ = std::max(durable_seq_, record.seq + 1);
      }
    }
    ++durability_stats_.fsyncs;
    durability_stats_.records_synced += deltas;
    durability_stats_.max_group =
        std::max(durability_stats_.max_group, deltas);
  }
  cv_.notify_all();
}

JournalFeed::GroupOutcome JournalFeed::WriteGroup(
    const std::vector<WalRecord>& group) const {
  GroupOutcome out;
  // Chaos/durability site: the device fails the flush. The WHOLE group
  // stays un-durable — no partial ack — and the feed is failed for good
  // (later groups would leave a hole before them in the log).
  if (DBPS_FAILPOINT("server.journal.fsync_fail")) {
    out.failed = true;
    return out;
  }
  // Crash sites: the process "dies" inside the sync. Unlike fsync_fail
  // the bytes (or a prefix of them) DO reach the file — exactly the
  // states recovery must cope with — but no ack is ever delivered and
  // the feed is dead thereafter.
  size_t full_records = group.size();  // records written completely
  bool torn = false;                   // then half of the last one
  if (DBPS_FAILPOINT("server.journal.crash_after_write")) {
    out.crashed = true;  // every record lands, the ack does not
  } else if (DBPS_FAILPOINT("server.journal.crash_mid_record")) {
    out.crashed = true;  // the final record is cut mid-frame (torn tail)
    full_records = group.size() - 1;
    torn = true;
  }
  if (fd_ >= 0) {
    auto write_all = [&](const char* data, size_t size) {
      size_t off = 0;
      while (off < size) {
        const ssize_t n = ::write(fd_, data + off, size - off);
        if (n < 0) return false;
        off += static_cast<size_t>(n);
      }
      out.bytes += size;
      return true;
    };
    std::string frame;
    for (size_t i = 0; i < group.size() && !out.failed; ++i) {
      frame.clear();
      EncodeWalRecord(group[i], &frame);
      if (i < full_records) {
        out.failed = !write_all(frame.data(), frame.size());
      } else if (torn) {
        (void)write_all(frame.data(), std::max<size_t>(1, frame.size() / 2));
      }
    }
    if (!out.failed && !out.crashed && ::fsync(fd_) != 0) out.failed = true;
  }
  if (out.crashed) out.failed = true;
  if (out.failed) return out;
  // Delay-style site (sleep-safe: no lock is held here) + the configured
  // device latency model.
  (void)DBPS_FAILPOINT("server.journal.fsync_delay");
  if (durable_options_.simulated_fsync_cost.count() > 0) {
    std::this_thread::sleep_for(durable_options_.simulated_fsync_cost);
  }
  return out;
}

void JournalFeed::RunFlusher() {
  // Lowest CPU priority for this thread (Linux: per-thread nice). The
  // flusher mostly waits for the disk. At normal priority, when the
  // scheduler put it on the CPU of the engine thread that woke it, it
  // preempted that thread at every hand-off and fsync completion: on
  // perfbench manners such runs took 22-38 us per hand-off and ~40%
  // more CPU per firing. At nice 19 it waits for a free CPU instead.
  (void)::setpriority(PRIO_PROCESS, static_cast<id_t>(::syscall(SYS_gettid)),
                      19);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    flusher_cv_.wait(lock,
                     [&] { return flusher_stop_ || !released_.empty(); });
    if (released_.empty()) return;  // stopping, and nothing left to write
    FlushReleased(lock);
  }
}

size_t JournalFeed::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lines_.size();
}

std::vector<std::string> JournalFeed::LinesFrom(size_t cursor) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (cursor >= lines_.size()) return {};
  return std::vector<std::string>(lines_.begin() + cursor, lines_.end());
}

std::string JournalFeed::TextFrom(size_t cursor) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (size_t i = cursor; i < lines_.size(); ++i) {
    out += lines_[i];
    out += '\n';
  }
  return out;
}

size_t JournalFeed::WaitForSize(size_t target,
                                std::chrono::milliseconds timeout) const {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, timeout, [&] { return lines_.size() >= target; });
  return lines_.size();
}

uint64_t JournalFeed::serialize_errors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return serialize_errors_;
}

Status JournalFeed::EnableDurability(DurabilityOptions options) {
  std::lock_guard<std::mutex> lock(mu_);
  if (durable_enabled_) {
    return Status::InvalidArgument("durability already enabled");
  }
  if (!options.path.empty()) {
    int flags = O_CREAT | O_WRONLY | O_CLOEXEC;
    switch (options.open_mode) {
      case JournalOpenMode::kAppend:
        flags |= O_APPEND;
        break;
      case JournalOpenMode::kTruncate:
        flags |= O_TRUNC;
        break;
      case JournalOpenMode::kFailIfExists:
        flags |= O_EXCL;
        break;
    }
    const int fd = ::open(options.path.c_str(), flags, 0644);
    if (fd < 0) {
      if (options.open_mode == JournalOpenMode::kFailIfExists &&
          errno == EEXIST) {
        return Status::AlreadyExists("journal file '" + options.path +
                                     "' already exists");
      }
      return Status::Unavailable("cannot open journal file '" +
                                 options.path + "'");
    }
    fd_ = fd;
  }
  durable_seq_ = options.start_seq;
  durable_options_ = std::move(options);
  durable_enabled_ = true;
  if (durable_options_.group_commit) {
    flusher_ = std::thread([this] { RunFlusher(); });
  }
  return Status::OK();
}

bool JournalFeed::durable_enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_enabled_;
}

Status JournalFeed::EnableCheckpoints(const WorkingMemory* wm) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!durable_enabled_) {
    return Status::InvalidArgument(
        "EnableCheckpoints requires durability to be enabled first");
  }
  if (wm == nullptr) {
    return Status::InvalidArgument("EnableCheckpoints: null working memory");
  }
  checkpoint_wm_ = wm;
  return Status::OK();
}

Status JournalFeed::RequestCheckpoint() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!durable_enabled_ || checkpoint_wm_ == nullptr) {
      return Status::InvalidArgument(
          "checkpointing is not enabled on this journal");
    }
    if (sync_failed_) {
      return Status::Internal("journal is failed; cannot checkpoint");
    }
  }
  checkpoint_requested_.store(true, std::memory_order_release);
  return Status::OK();
}

Status JournalFeed::WaitDurable(uint64_t seq,
                                std::chrono::milliseconds timeout) const {
  std::unique_lock<std::mutex> lock(mu_);
  if (!durable_enabled_) return Status::OK();  // nothing promised, nothing owed
  cv_.wait_for(lock, timeout,
               [&] { return sync_failed_ || durable_seq_ > seq; });
  if (durable_seq_ > seq) return Status::OK();
  if (sync_failed_) {
    return Status::Internal(
        "journal sync failed; commit " + std::to_string(seq) +
        " is not durable (no member of its group was acknowledged)");
  }
  return Status::Internal("timed out waiting for commit " +
                          std::to_string(seq) + " to become durable");
}

uint64_t JournalFeed::durable_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_seq_;
}

DurabilityStats JournalFeed::durability() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durability_stats_;
}

}  // namespace dbps
