#include "common/thread_set.hpp"

#include <utility>

namespace pwdft {

void ThreadSet::spawn(std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t id = next_id_++;
  // The new thread's retire() needs mu_, so it cannot look its handle up
  // before the emplace below has stored it.
  running_.emplace(id, std::thread([this, id, fn = std::move(fn)] {
                     fn();
                     retire(id);
                   }));
}

void ThreadSet::retire(std::uint64_t id) {
  std::thread previous;
  {
    std::lock_guard<std::mutex> lock(mu_);
    previous = std::move(retired_);
    auto it = running_.find(id);
    retired_ = std::move(it->second);
    running_.erase(it);
    cv_.notify_all();
  }
  // `previous` returned from its function before it parked itself, so this
  // join only waits for its thread exit.
  if (previous.joinable()) previous.join();
}

void ThreadSet::join_all() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return running_.empty(); });
  std::thread last = std::move(retired_);
  lock.unlock();
  // The last finisher joins its own predecessor before exiting, so joining
  // it leaves no thread of this set behind.
  if (last.joinable()) last.join();
}

std::size_t ThreadSet::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_.size() + (retired_.joinable() ? 1 : 0);
}

}  // namespace pwdft
