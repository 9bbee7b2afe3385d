#include "util/thread_pool.h"

#include <algorithm>
#include <cstdio>
#include <string>

#ifdef __linux__
#include <pthread.h>
#endif

#include "obs/trace.h"
#include "util/memory_meter.h"

namespace tigat::util {

namespace {

// Names a worker for the obs trace, and at the OS level where
// supported, so trace rows, TSan reports and `top -H` all agree on
// which thread is which.
void name_worker(unsigned index) {
  char name[16];  // pthread limit: 15 chars + NUL
  std::snprintf(name, sizeof name, "tigat-w%u", index);
#ifdef __linux__
  pthread_setname_np(pthread_self(), name);
#endif
  obs::set_thread_name(name);
}

}  // namespace

unsigned ThreadPool::hardware_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = hardware_threads();
  workers_.reserve(threads - 1);
  for (unsigned i = 1; i < threads; ++i) {
    workers_.emplace_back([this, i] {
      name_worker(i);
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_.wait(lock, [&] { return stop_ || epoch_ != seen; });
    if (stop_) return;
    seen = epoch_;
    lock.unlock();
    run_chunks();
    lock.lock();
    // Ack the epoch and go straight back to wait without dropping the
    // mutex: after `acked_` reaches the worker count the caller knows
    // every worker is parked, so reposting can never race run_chunks.
    ++acked_;
    finished_.notify_all();
  }
}

void ThreadPool::run_chunks() {
  // One span per participating thread per job — the per-worker rows in
  // the trace.  Chunks inside it are too fine-grained to record
  // individually.
  TIGAT_SPAN(label_ != nullptr ? label_ : "parallel_for");
  // Claim chunks until the cursor runs off the end.  After a body
  // exception the remaining chunks are still claimed but skipped, so
  // the range drains and the first exception reaches the caller.
  for (;;) {
    const std::size_t begin =
        cursor_.fetch_add(grain_, std::memory_order_relaxed);
    if (begin >= n_) break;
    const std::size_t end = std::min(begin + grain_, n_);
    if (aborted_.load(std::memory_order_acquire)) continue;
    try {
      (*body_)(begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!error_) error_ = std::current_exception();
      aborted_.store(true, std::memory_order_release);
    }
  }
  // Before the ack: once parallel_for returns, zone_memory() holds
  // every byte the job's zones allocated or freed.
  flush_zone_meter();
}

void ThreadPool::parallel_for(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body,
    const char* label) {
  if (n == 0) return;
  grain = std::max<std::size_t>(grain, 1);
  if (workers_.empty() || n <= grain) {
    TIGAT_SPAN(label != nullptr ? label : "parallel_for");
    body(0, n);
    flush_zone_meter();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    body_ = &body;
    label_ = label;
    n_ = n;
    grain_ = grain;
    cursor_.store(0, std::memory_order_relaxed);
    aborted_.store(false, std::memory_order_relaxed);
    error_ = nullptr;
    acked_ = 0;
    ++epoch_;
  }
  wake_.notify_all();
  run_chunks();  // the caller participates
  // Wait until every worker acked the epoch (all are parked in wait
  // again); only then is it safe to return — releasing whatever the
  // body captured — or to post the next job.
  std::unique_lock<std::mutex> lock(mutex_);
  finished_.wait(lock, [&] { return acked_ == workers_.size(); });
  const std::exception_ptr err = error_;
  error_ = nullptr;
  lock.unlock();
  if (err) std::rethrow_exception(err);
}

}  // namespace tigat::util
