#include "runtime/threaded_cluster.h"

#include <stdexcept>

#include "common/logging.h"

namespace cmh::runtime {

// ---- ThreadTimerService -----------------------------------------------------

ThreadTimerService::ThreadTimerService() : worker_([this] { loop(); }) {}

ThreadTimerService::~ThreadTimerService() { stop(); }

void ThreadTimerService::stop() {
  {
    const MutexLock lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

void ThreadTimerService::schedule(SimTime delay, std::function<void()> fn) {
  const auto at = std::chrono::steady_clock::now() +
                  std::chrono::microseconds(delay.micros);
  {
    const MutexLock lock(mutex_);
    if (stopping_) return;
    pending_.emplace(at, std::move(fn));
  }
  cv_.notify_all();
}

void ThreadTimerService::loop() {
  // Due callbacks are moved out under the lock and fired outside it: a
  // callback may call schedule() (which takes mutex_) or run arbitrarily
  // long, and must not do either while holding the scheduler lock.
  std::vector<std::function<void()>> due;
  for (;;) {
    {
      const MutexLock lock(mutex_);
      for (;;) {
        if (stopping_) return;
        if (pending_.empty()) {
          cv_.wait(mutex_, [&] {
            mutex_.assert_held();  // held by CondVar::wait's contract
            return stopping_ || !pending_.empty();
          });
          continue;
        }
        const auto next = pending_.begin()->first;
        if (std::chrono::steady_clock::now() >= next) break;
        cv_.wait_until(mutex_, next, [&] {
          mutex_.assert_held();  // held by CondVar::wait's contract
          // Wake early on stop or when schedule() inserts an earlier
          // deadline; either way the outer loop re-evaluates.
          return stopping_ || pending_.empty() ||
                 pending_.begin()->first < next;
        });
      }
      const auto now = std::chrono::steady_clock::now();
      while (!pending_.empty() && pending_.begin()->first <= now) {
        due.push_back(std::move(pending_.begin()->second));
        pending_.erase(pending_.begin());
      }
    }
    for (auto& fn : due) fn();
    due.clear();
  }
}

// ---- ThreadedCluster --------------------------------------------------------

ThreadedCluster::ThreadedCluster(net::Transport& transport, std::uint32_t n,
                                 core::Options options)
    : transport_(transport) {
  cells_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    // Built while still thread-local; the process is only ever touched
    // under its cell's mutex once the transport starts.
    cells_.push_back(std::make_unique<Cell>());
    cells_.back()->process = std::make_unique<core::BasicProcess>(
        ProcessId{i}, static_cast<core::ProcessHost&>(*this), options);
    const auto node = transport_.add_node(
        [this, i](net::NodeId from, BytesView payload) {
          Cell& c = *cells_[i];
          const MutexLock lock(c.mutex);
          const auto st = c.process->on_message(ProcessId{from}, payload);
          if (!st.ok()) {  // dropped; the process state is untouched
            CMH_LOG(kWarn, "threaded")
                << ProcessId{i} << " drops an undecodable frame from "
                << ProcessId{from} << ": " << st.to_string();
          }
        });
    if (node != i) {
      throw std::logic_error("ThreadedCluster: transport already had nodes");
    }
  }
  transport_.start();
}

ThreadedCluster::~ThreadedCluster() { stop(); }

void ThreadedCluster::send(ProcessId from, ProcessId to, BytesView payload) {
  transport_.send(from.value(), to.value(), payload);
}

void ThreadedCluster::schedule(ProcessId who, SimTime delay,
                               std::function<void()> fn) {
  // The kDelayed timer calls back into the process, so it runs under the
  // cell's mutex like every other touch of the process.
  timers_.schedule(delay, [this, who, f = std::move(fn)] {
    const MutexLock lock(cells_[who.value()]->mutex);
    f();
  });
}

void ThreadedCluster::on_deadlock(ProcessId who, const ProbeTag&) {
  {
    const MutexLock lock(detect_mutex_);
    detections_.push_back(who);
  }
  detect_cv_.notify_all();
}

void ThreadedCluster::stop() {
  {
    const MutexLock lock(detect_mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  timers_.stop();
  transport_.stop();
}

void ThreadedCluster::request(ProcessId from, ProcessId to) {
  Cell& cell = *cells_.at(from.value());
  const MutexLock lock(cell.mutex);
  cell.process->send_request(to);
}

void ThreadedCluster::reply(ProcessId from, ProcessId to) {
  Cell& cell = *cells_.at(from.value());
  const MutexLock lock(cell.mutex);
  cell.process->send_reply(to);
}

std::optional<ProbeTag> ThreadedCluster::initiate(ProcessId p) {
  Cell& cell = *cells_.at(p.value());
  const MutexLock lock(cell.mutex);
  return cell.process->initiate();
}

bool ThreadedCluster::deadlocked(ProcessId p) const {
  const Cell& cell = *cells_.at(p.value());
  const MutexLock lock(cell.mutex);
  return cell.process->deadlocked();
}

bool ThreadedCluster::declared(ProcessId p) const {
  const Cell& cell = *cells_.at(p.value());
  const MutexLock lock(cell.mutex);
  return cell.process->declared_deadlock();
}

core::ProcessStats ThreadedCluster::stats(ProcessId p) const {
  const Cell& cell = *cells_.at(p.value());
  const MutexLock lock(cell.mutex);
  return cell.process->stats();
}

std::set<graph::Edge> ThreadedCluster::wfgd_edges(ProcessId p) const {
  const Cell& cell = *cells_.at(p.value());
  const MutexLock lock(cell.mutex);
  const auto& edges = cell.process->wfgd_edges();
  return {edges.begin(), edges.end()};
}

std::optional<ProcessId> ThreadedCluster::wait_for_detection(
    std::chrono::milliseconds max) {
  const MutexLock lock(detect_mutex_);
  detect_cv_.wait_for(detect_mutex_, max, [&] {
    detect_mutex_.assert_held();  // held by CondVar::wait's contract
    return !detections_.empty();
  });
  if (detections_.empty()) return std::nullopt;
  return detections_.front();
}

std::size_t ThreadedCluster::detection_count() const {
  const MutexLock lock(detect_mutex_);
  return detections_.size();
}

}  // namespace cmh::runtime
