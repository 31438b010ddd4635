#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <utility>

namespace lifl::sim {

/// FIFO queue on a power-of-two ring buffer.
///
/// `std::deque` allocates a block every few pushes of a queue that merely
/// cycles (and frees one every few pops); this ring allocates only when it
/// outgrows its high-water depth. Popping destroys the element at once, so
/// whatever it owns is released exactly when a deque would release it.
template <typename T>
class Fifo {
 public:
  Fifo() = default;
  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;
  ~Fifo() {
    clear();
    if (data_ != nullptr) std::allocator<T>().deallocate(data_, cap_);
  }

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  T& front() noexcept { return data_[head_]; }
  /// The `i`-th element from the front.
  T& operator[](std::size_t i) noexcept { return data_[wrap(head_ + i)]; }

  void push_back(T v) { emplace_back(std::move(v)); }

  /// Construct the new back element in place from `args`.
  template <typename... A>
  void emplace_back(A&&... args) {
    if (size_ == cap_) grow();
    ::new (static_cast<void*>(data_ + wrap(head_ + size_)))
        T(std::forward<A>(args)...);
    ++size_;
  }

  void pop_front() noexcept {
    data_[head_].~T();
    head_ = wrap(head_ + 1);
    --size_;
  }

  void clear() noexcept {
    while (size_ != 0) pop_front();
  }

 private:
  std::size_t wrap(std::size_t i) const noexcept { return i & (cap_ - 1); }

  void grow() {
    const std::size_t cap = cap_ == 0 ? 8 : 2 * cap_;
    T* data = std::allocator<T>().allocate(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      T& src = (*this)[i];
      ::new (static_cast<void*>(data + i)) T(std::move(src));
      src.~T();
    }
    if (data_ != nullptr) std::allocator<T>().deallocate(data_, cap_);
    data_ = data;
    cap_ = cap;
    head_ = 0;
  }

  T* data_ = nullptr;
  std::size_t cap_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace lifl::sim
