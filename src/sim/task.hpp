// Move-only, type-erased `void()` callable with a small inline buffer.
//
// The simulator stores one Task per scheduled event. Closures that fit the
// inline buffer (every hot timer of the data plane: proxy op-ready, storage
// service completion, retransmit and fallback timers, network delivery)
// live inside the Task itself, so scheduling them allocates nothing. Larger
// or throwing-move captures still work: they spill to one heap block, as a
// std::function would.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace qopt::sim {

class Task {
 public:
  /// Inline capacity in bytes; with the dispatch pointer a Task is exactly
  /// two cache lines.
  static constexpr std::size_t kInlineBytes = 120;

  /// True when a callable of type F is stored inline (no allocation).
  template <typename F>
  static constexpr bool fits_inline() noexcept {
    return sizeof(std::decay_t<F>) <= kInlineBytes &&
           alignof(std::decay_t<F>) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<std::decay_t<F>>;
  }

  Task() noexcept = default;

  template <typename F, typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, Task> &&
                                        std::is_invocable_r_v<void, Fn&>>>
  Task(F&& fn) {  // implicit: at()/after() call sites pass bare lambdas
    if constexpr (fits_inline<Fn>()) {
      std::construct_at(reinterpret_cast<Fn*>(buf_), std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      std::construct_at(reinterpret_cast<Fn**>(buf_),
                        new Fn(std::forward<F>(fn)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  Task(Task&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      reset();
      if (other.ops_ != nullptr) {
        other.ops_->relocate(buf_, other.buf_);
        ops_ = other.ops_;
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  ~Task() { reset(); }

  /// Invokes the callable. Precondition: non-empty.
  void operator()() { ops_->invoke(buf_); }

  /// Destroys the callable, leaving the Task empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* buf);
    /// Move-constructs into `dst` from `src` and destroys the source.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* buf) noexcept;
  };

  /// The object of type T living in `buf`.
  template <typename T>
  static T* in(void* buf) noexcept {
    return std::launder(static_cast<T*>(buf));
  }

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* buf) { (*in<Fn>(buf))(); },
      [](void* dst, void* src) noexcept {
        std::construct_at(static_cast<Fn*>(dst), std::move(*in<Fn>(src)));
        std::destroy_at(in<Fn>(src));
      },
      [](void* buf) noexcept { std::destroy_at(in<Fn>(buf)); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* buf) { (**in<Fn*>(buf))(); },
      [](void* dst, void* src) noexcept {
        std::construct_at(static_cast<Fn**>(dst), *in<Fn*>(src));
      },
      [](void* buf) noexcept { delete *in<Fn*>(buf); },
  };

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

static_assert(sizeof(Task) == 128, "Task should stay two cache lines");

}  // namespace qopt::sim
