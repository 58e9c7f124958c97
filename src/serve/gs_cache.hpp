#pragma once

/// \file gs_cache.hpp
/// Content-addressed store of converged ground states, owned by one
/// serve::JobEngine. Excitations of one system (kicks along different axes,
/// lasers of different strengths) all start from the same hybrid ground
/// state; the cache lets them share one SCF instead of each paying for it.
///
/// Key: the exact bytes of the spec's simulation options as the wire codec
/// encodes them (wire::put_sim). Keys compare byte for byte, never by hash,
/// so a hit is never a collision.
///
/// Single flight: while one caller computes a key, every other caller of
/// that key waits for it and then shares its result; if the computation
/// throws, the waiters retry and one of them computes in turn.
///
/// Bound: entries are evicted least-recently-used once their summed size
/// would exceed the byte budget. An entry larger than the whole budget is
/// handed to the callers that waited for it but not retained.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "linalg/matrix.hpp"

namespace pwdft::serve {

/// Byte budget of a JobEngine's ground-state cache: room for about nine
/// Si64 ground states at the paper's 10 Ha cutoff (~27 MB of orbitals each)
/// and thousands of the small cells the tests and benchmarks serve.
constexpr std::size_t kGroundStateCacheBytes = std::size_t{256} << 20;

class GroundStateCache {
 public:
  using Key = std::vector<std::uint8_t>;
  struct Entry {
    CMatrix psi;          ///< converged orbitals
    double energy = 0.0;  ///< SCF total energy (Ha)
  };

  explicit GroundStateCache(std::size_t budget_bytes = kGroundStateCacheBytes)
      : budget_(budget_bytes) {}

  /// Returns the entry stored under `key`, calling `compute` to produce it
  /// when absent (see the single-flight rule above). An exception from
  /// `compute` propagates to this caller only.
  std::shared_ptr<const Entry> get_or_compute(const Key& key,
                                              const std::function<Entry()>& compute);

  std::size_t bytes() const;    ///< summed size of the retained entries
  std::size_t entries() const;  ///< retained entries (pending ones excluded)

 private:
  struct Slot {
    Key key;
    std::shared_ptr<const Entry> value;  ///< null while pending and after a failure
    bool pending = true;
    std::uint64_t last_use = 0;
    std::size_t bytes = 0;
  };

  void erase_locked(const Slot* slot);

  const std::size_t budget_;
  mutable std::mutex mu_;
  std::condition_variable cv_;  ///< signalled when a pending slot resolves
  std::vector<std::shared_ptr<Slot>> slots_;
  std::size_t bytes_ = 0;
  std::uint64_t clock_ = 0;  ///< LRU tick
};

}  // namespace pwdft::serve
