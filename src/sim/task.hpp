#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace lifl::sim {

/// Bytes of callable a `TaskFn` holds inline.
inline constexpr std::size_t kTaskInlineBytes = 24;

/// Move-only callable with 24 bytes of inline storage — the event-core
/// replacement for `std::function<void(Args...)>`.
///
/// `std::function`'s 16-byte small-buffer spills a three-pointer capture to
/// a heap allocation, and every queue move pays an indirect manager call.
/// `TaskFn` widens the inline window to 24 bytes while keeping the whole
/// callable at 32 — an event slab record stays one cache line — and moves
/// and invokes through a single static vtable. Trivially copyable inline
/// callables (the {object, slot} trampolines of the event core) and every
/// heap-stored callable relocate by plain copy, and trivially destructible
/// ones skip the destroy call, so queueing them costs no indirect calls.
/// `Task` (the nullary alias) is the simulator's event callback;
/// `TaskFn<fl::UpdateDesc>` is the update-pool waiter.
template <typename... Args>
class TaskFn {
 public:
  TaskFn() noexcept = default;
  TaskFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, TaskFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&, Args...>>>
  TaskFn(F&& f) {  // NOLINT(google-explicit-constructor)
    construct(std::forward<F>(f));
  }

  TaskFn(TaskFn&& other) noexcept { move_from(other); }
  TaskFn& operator=(TaskFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  TaskFn& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  TaskFn(const TaskFn&) = delete;
  TaskFn& operator=(const TaskFn&) = delete;

  ~TaskFn() { reset(); }

  /// Replace the held callable with one built in place from `f`, so a
  /// callable travels from the caller straight into its final slot with no
  /// intermediate `TaskFn`. An rvalue `TaskFn` is relocated, not wrapped;
  /// `accepts_v` (below) keeps lvalue `TaskFn`s out of forwarding APIs.
  template <typename F>
  void emplace(F&& f) {
    reset();
    if constexpr (std::is_same_v<std::decay_t<F>, TaskFn>) {
      static_assert(accepts_v<F>,
                    "emplace would steal an lvalue TaskFn; std::move it");
      move_from(f);
    } else {
      construct(std::forward<F>(f));
    }
  }

  /// Whether `F&&` may be consumed into a `TaskFn`: a constructible callable
  /// of the right signature, or an rvalue `TaskFn`. An lvalue `TaskFn` is
  /// refused, so `schedule_*(t, task)` fails to compile instead of silently
  /// emptying the caller's `task`.
  template <typename F>
  static constexpr bool accepts_v =
      std::is_same_v<F, TaskFn> ||
      (!std::is_same_v<std::decay_t<F>, TaskFn> &&
       std::is_invocable_r_v<void, std::decay_t<F>&, Args...> &&
       std::is_constructible_v<std::decay_t<F>, F>);

  explicit operator bool() const noexcept { return vt_ != nullptr; }

  /// Whether the held callable is a hot callable (`is_hot_callable_v`,
  /// below): stored inline, copied by its bytes, nothing to destroy. Only
  /// such a callable may be `copy`-ed.
  bool hot() const noexcept {
    return vt_ != nullptr && vt_->relocate == nullptr &&
           vt_->destroy == nullptr;
  }

  /// A second `TaskFn` holding a copy of the held hot callable. Requires
  /// `hot()`: a heap-stored callable's buffer is an owning pointer, so
  /// copying it would share (and later double-free) the callable.
  TaskFn copy() const noexcept {
    TaskFn t;
    t.vt_ = vt_;
    std::memcpy(t.buf_, buf_, kInlineBytes);
    return t;
  }

  void operator()(Args... args) {
    vt_->invoke(buf_, std::forward<Args>(args)...);
  }

 private:
  static constexpr std::size_t kInlineBytes = kTaskInlineBytes;

  struct VTable {
    void (*invoke)(void*, Args&&...);
    /// Move into dst, destroy src; null = relocate by copying the buffer.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);  ///< null = nothing to destroy
  };

  template <typename Fn>
  static void relocate_inline(void* dst, void* src) {
    Fn* s = std::launder(reinterpret_cast<Fn*>(src));
    ::new (dst) Fn(std::move(*s));
    s->~Fn();
  }

  template <typename Fn>
  static void destroy_inline(void* p) {
    std::launder(reinterpret_cast<Fn*>(p))->~Fn();
  }

  template <typename Fn>
  static const VTable* inline_vtable() noexcept {
    static constexpr VTable vt = {
        [](void* p, Args&&... args) {
          (*std::launder(reinterpret_cast<Fn*>(p)))(
              std::forward<Args>(args)...);
        },
        std::is_trivially_copyable_v<Fn> ? nullptr : &relocate_inline<Fn>,
        std::is_trivially_destructible_v<Fn> ? nullptr : &destroy_inline<Fn>};
    return &vt;
  }

  template <typename Fn>
  static const VTable* heap_vtable() noexcept {
    static constexpr VTable vt = {
        [](void* p, Args&&... args) {
          (**reinterpret_cast<Fn**>(p))(std::forward<Args>(args)...);
        },
        nullptr,  // the buffer holds just the owning pointer
        [](void* p) { delete *reinterpret_cast<Fn**>(p); }};
    return &vt;
  }

  template <typename F>
  void construct(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      vt_ = inline_vtable<Fn>();
    } else {
      *reinterpret_cast<Fn**>(buf_) = new Fn(std::forward<F>(f));
      vt_ = heap_vtable<Fn>();
    }
  }

  void move_from(TaskFn& other) noexcept {
    vt_ = other.vt_;
    if (vt_ != nullptr) {
      if (vt_->relocate != nullptr) {
        vt_->relocate(buf_, other.buf_);
      } else {
        std::memcpy(buf_, other.buf_, kInlineBytes);
      }
      other.vt_ = nullptr;
    }
  }

  void reset() noexcept {
    if (vt_ != nullptr) {
      if (vt_->destroy != nullptr) vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const VTable* vt_ = nullptr;
};

/// The simulator's nullary event callback.
using Task = TaskFn<>;

/// The shape of a hot-path continuation: it fits `TaskFn`'s inline bytes,
/// relocates by plain copy and needs no destructor call, so queueing,
/// moving and dropping it cost no indirect call. Per-upload callbacks are
/// checked against it where they are defined.
template <typename F>
inline constexpr bool is_hot_callable_v =
    std::is_trivially_copyable_v<F> && std::is_trivially_destructible_v<F> &&
    sizeof(F) <= kTaskInlineBytes && alignof(F) <= alignof(std::max_align_t);

}  // namespace lifl::sim
