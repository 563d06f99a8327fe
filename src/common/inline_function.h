// A move-only callable with fixed inline storage and no heap fallback.
//
// Storing one is a placement-new into the object itself, calling it is one
// indirect call through a static per-type ops table (no vtable, no
// std::function manager protocol). A callable larger than Capacity is a
// compile error: move bulky state into the callee rather than raise the cap
// (ClusterHost::RequestSleep shows the pattern), because the cap is what
// keeps relocating one cheap. The event queue's closures (EventClosure) and
// ClusterHost's wake and sleep waiters are both instances.

#ifndef OASIS_SRC_COMMON_INLINE_FUNCTION_H_
#define OASIS_SRC_COMMON_INLINE_FUNCTION_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace oasis {

template <typename Signature, size_t Capacity>
class InlineFunction;

template <typename R, typename... Args, size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
 public:
  static constexpr size_t kCapacity = Capacity;

  InlineFunction() = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::remove_cvref_t<F>, InlineFunction>>>
  // NOLINTNEXTLINE(google-explicit-constructor): callables convert implicitly
  // so call sites read exactly as they did with std::function.
  InlineFunction(F&& fn) {
    using Fn = std::remove_cvref_t<F>;
    static_assert(sizeof(Fn) <= kCapacity,
                  "callable captures exceed the inline buffer; "
                  "shrink the capture list or move state into the callee");
    static_assert(alignof(Fn) <= alignof(std::max_align_t), "callable capture is over-aligned");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "inline callables must be nothrow-movable (relocation)");
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
    ops_ = &OpsFor<Fn>::kOps;
  }

  InlineFunction(InlineFunction&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(buf_, other.buf_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { Reset(); }

  // Destroys the held callable (running capture destructors inline) and
  // leaves this empty.
  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const { return ops_ != nullptr; }

  R operator()(Args... args) { return ops_->invoke(buf_, std::forward<Args>(args)...); }

 private:
  struct Ops {
    R (*invoke)(void*, Args...);
    // Move-constructs dst from src, then destroys src.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename Fn>
  struct OpsFor {
    static R Invoke(void* p, Args... args) {
      return (*static_cast<Fn*>(p))(std::forward<Args>(args)...);
    }
    static void Relocate(void* dst, void* src) {
      Fn* s = static_cast<Fn*>(src);
      ::new (dst) Fn(std::move(*s));
      s->~Fn();
    }
    static void Destroy(void* p) { static_cast<Fn*>(p)->~Fn(); }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy};
  };

  const Ops* ops_ = nullptr;
  alignas(alignof(std::max_align_t)) unsigned char buf_[kCapacity];
};

}  // namespace oasis

#endif  // OASIS_SRC_COMMON_INLINE_FUNCTION_H_
