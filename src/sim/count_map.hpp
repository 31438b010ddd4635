#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lifl::sim {

/// Map from 64-bit keys to positive counts, for per-client tallies that
/// churn at event rate (live upload sessions, parked sessions).
///
/// Open addressing with linear probing and backward-shift erase: no node
/// per key, so incrementing and decrementing allocate nothing once the
/// table has grown to the live-key high-water mark. Memory follows the
/// number of keys with a non-zero count, not the key range.
class CountMap {
 public:
  /// Count of `key` (0 if absent).
  std::uint32_t get(std::uint64_t key) const noexcept {
    if (cells_.empty()) return 0;
    for (std::size_t i = home(key);; i = next(i)) {
      const Cell& c = cells_[i];
      if (c.count == 0) return 0;
      if (c.key == key) return c.count;
    }
  }

  /// Add one to `key`'s count; returns the new count.
  std::uint32_t increment(std::uint64_t key) {
    if (2 * (size_ + 1) > cells_.size()) grow();
    std::size_t i = home(key);
    for (; cells_[i].count != 0; i = next(i)) {
      if (cells_[i].key == key) return ++cells_[i].count;
    }
    cells_[i] = Cell{key, 1};
    ++size_;
    return 1;
  }

  /// Subtract one from `key`'s count, erasing it at zero. No-op if absent.
  void decrement(std::uint64_t key) noexcept {
    if (cells_.empty()) return;
    std::size_t i = home(key);
    for (; cells_[i].count != 0; i = next(i)) {
      if (cells_[i].key == key) break;
    }
    if (cells_[i].count == 0 || --cells_[i].count != 0) return;
    --size_;
    // Shift later members of the probe run back over the hole.
    const std::size_t mask = cells_.size() - 1;
    for (std::size_t j = next(i); cells_[j].count != 0; j = next(j)) {
      const std::size_t h = home(cells_[j].key);
      if (((j - h) & mask) >= ((j - i) & mask)) {
        cells_[i] = cells_[j];
        i = j;
      }
    }
    cells_[i] = Cell{};
  }

  /// True when no key has a non-zero count.
  bool empty() const noexcept { return size_ == 0; }

 private:
  struct Cell {
    std::uint64_t key = 0;
    std::uint32_t count = 0;  ///< 0 = empty cell
  };

  std::size_t home(std::uint64_t key) const noexcept {
    key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ull;
    key = (key ^ (key >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::size_t>(key ^ (key >> 31)) & (cells_.size() - 1);
  }
  std::size_t next(std::size_t i) const noexcept {
    return (i + 1) & (cells_.size() - 1);
  }

  void grow() {
    std::vector<Cell> old(cells_.empty() ? 16 : 2 * cells_.size());
    old.swap(cells_);
    for (const Cell& c : old) {
      if (c.count == 0) continue;
      std::size_t i = home(c.key);
      while (cells_[i].count != 0) i = next(i);
      cells_[i] = c;
    }
  }

  std::vector<Cell> cells_;
  std::size_t size_ = 0;
};

}  // namespace lifl::sim
