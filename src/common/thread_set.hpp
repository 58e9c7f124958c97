#pragma once

/// \file thread_set.hpp
/// A set of one-task worker threads that reap one another. A long-lived
/// service that starts one thread per unit of work (serve::Server: one per
/// connection) and joins them only at shutdown leaves an exited-but-
/// unjoined thread, with its stack still mapped, per finished unit. Here each
/// thread, as its last act, joins the thread that finished before it and
/// parks its own handle for the next finisher, so at most one exited handle
/// is ever outstanding and the set never holds more threads than are
/// running plus one.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>

namespace pwdft {

class ThreadSet {
 public:
  ThreadSet() = default;
  ~ThreadSet() { join_all(); }
  ThreadSet(const ThreadSet&) = delete;
  ThreadSet& operator=(const ThreadSet&) = delete;

  /// Runs `fn` on a new thread. `fn` must not throw (as for std::thread).
  void spawn(std::function<void()> fn);

  /// Blocks until every spawned thread has finished, then joins them all.
  /// The owner must stop spawning first (threads spawned concurrently with
  /// this call are waited for too, but a steady stream would never end).
  void join_all();

  /// Threads started and not yet joined: running ones plus at most one
  /// finished handle awaiting its reaper.
  std::size_t size() const;

 private:
  /// Epilogue of every spawned thread: moves its handle to `retired_` and
  /// joins the previous occupant.
  void retire(std::uint64_t id);

  mutable std::mutex mu_;
  std::condition_variable cv_;  ///< signalled when `running_` shrinks
  std::unordered_map<std::uint64_t, std::thread> running_;
  std::thread retired_;  ///< last finisher, joined by the next one
  std::uint64_t next_id_ = 0;
};

}  // namespace pwdft
