#pragma once

#include <cassert>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace efd::sim {

/// Move-only type-erased callable with a fixed inline buffer. The event
/// engine's replacement for `std::function<void()>`: the capture is stored in
/// place, so constructing one never allocates. A callable that does not fit
/// the buffer, or whose move can throw (relocation must not), is rejected at
/// compile time: there is no heap fallback.
template <typename Signature, std::size_t Capacity = 48>
class InlineFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
 public:
  static constexpr std::size_t kCapacity = Capacity;
  static_assert(Capacity >= sizeof(void*));

  /// True when `F` fits the buffer and so can be stored at all.
  template <typename F>
  static constexpr bool stores_inline =
      sizeof(F) <= Capacity && alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  InlineFunction() = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, InlineFunction> &&
             std::is_invocable_r_v<R, std::decay_t<F>&, Args...> &&
             stores_inline<std::decay_t<F>>)
  InlineFunction(F&& f)  // NOLINT(google-explicit-constructor)
      : ops_(&OpsFor<std::decay_t<F>>::ops) {
    ::new (static_cast<void*>(buf_)) std::decay_t<F>(std::forward<F>(f));
  }

  InlineFunction(InlineFunction&& other) noexcept { steal(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      destroy();
      steal(other);
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { destroy(); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  R operator()(Args... args) {
    assert(ops_ != nullptr && "calling an empty InlineFunction");
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    /// Move-construct the callable at `dst` from `src`, destroying `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  struct OpsFor {
    static R invoke(void* p, Args&&... args) {
      return (*static_cast<Fn*>(p))(std::forward<Args>(args)...);
    }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
      static_cast<Fn*>(src)->~Fn();
    }
    static void destroy(void* p) noexcept { static_cast<Fn*>(p)->~Fn(); }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  void steal(InlineFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  void destroy() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte buf_[Capacity];
  const Ops* ops_ = nullptr;
};

}  // namespace efd::sim
