// Handler table shared by the FM 1.x and FM 2.x endpoints. It grows on
// registration, so an endpoint that registers handler 0 holds one entry,
// not one per possible id. Each handler lives in its own heap block, so
// growing the table never moves one: an FM 2.x handler coroutine suspended
// mid-message refers to its closure by address.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

namespace fmx {

template <typename Fn>
class HandlerTable {
 public:
  /// Ids the FM libraries accept: 0..255.
  static constexpr std::size_t kMaxHandlers = 256;

  /// Install `fn` as handler `id`, replacing any earlier one. Throws
  /// std::out_of_range for an id at or above kMaxHandlers.
  void set(std::uint16_t id, Fn fn) {
    if (id >= kMaxHandlers) throw std::out_of_range("FM: handler id >= 256");
    if (id >= fns_.size()) fns_.resize(id + 1);
    fns_[id] = std::make_unique<Fn>(std::move(fn));
  }

  /// The handler registered as `id`, or null when there is none (the
  /// packet is then consumed and dropped).
  const Fn* find(std::uint16_t id) const noexcept {
    if (id >= fns_.size() || !fns_[id] || !*fns_[id]) return nullptr;
    return fns_[id].get();
  }

 private:
  std::vector<std::unique_ptr<Fn>> fns_;
};

}  // namespace fmx
