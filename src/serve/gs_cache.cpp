#include "serve/gs_cache.hpp"

#include <algorithm>

namespace pwdft::serve {

std::shared_ptr<const GroundStateCache::Entry> GroundStateCache::get_or_compute(
    const Key& key, const std::function<Entry()>& compute) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    const auto it = std::find_if(slots_.begin(), slots_.end(),
                                 [&](const auto& s) { return s->key == key; });
    if (it == slots_.end()) break;
    const std::shared_ptr<Slot> slot = *it;
    cv_.wait(lock, [&] { return !slot->pending; });
    if (slot->value) {
      slot->last_use = ++clock_;
      return slot->value;
    }
    // The owner's computation threw and dropped the slot: look again.
  }

  const auto slot = std::make_shared<Slot>();
  slot->key = key;
  slots_.push_back(slot);
  lock.unlock();

  std::shared_ptr<const Entry> value;
  try {
    value = std::make_shared<const Entry>(compute());
  } catch (...) {
    lock.lock();
    slot->pending = false;
    erase_locked(slot.get());
    cv_.notify_all();
    throw;
  }

  lock.lock();
  slot->pending = false;
  slot->value = value;
  slot->last_use = ++clock_;
  slot->bytes = value->psi.size() * sizeof(Complex) + key.size();
  if (slot->bytes > budget_) {
    erase_locked(slot.get());  // the waiters already hold `slot`
  } else {
    while (bytes_ + slot->bytes > budget_) {
      Slot* lru = nullptr;
      for (const auto& s : slots_)
        if (!s->pending && s != slot && (!lru || s->last_use < lru->last_use)) lru = s.get();
      bytes_ -= lru->bytes;  // non-null: the retained entries alone exceed the room left
      erase_locked(lru);
    }
    bytes_ += slot->bytes;
  }
  cv_.notify_all();
  return value;
}

void GroundStateCache::erase_locked(const Slot* slot) {
  slots_.erase(std::find_if(slots_.begin(), slots_.end(),
                            [&](const auto& s) { return s.get() == slot; }));
}

std::size_t GroundStateCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

std::size_t GroundStateCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::size_t>(
      std::count_if(slots_.begin(), slots_.end(), [](const auto& s) { return !s->pending; }));
}

}  // namespace pwdft::serve
