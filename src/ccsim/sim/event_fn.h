#ifndef CCSIM_SIM_EVENT_FN_H_
#define CCSIM_SIM_EVENT_FN_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace ccsim::sim {

/// A move-only callable wrapper for event handlers, tuned for the calendar
/// hot path. Callables up to kInlineBytes with a non-throwing move
/// constructor are stored inline (scheduling such an event never touches the
/// heap); larger callables fall back to a single heap allocation. Unlike
/// std::function there is no copy support, no RTTI and no target access:
/// the only operations are move, invoke and destroy, dispatched through a
/// static three-entry op table per callable type. Moving a trivially
/// copyable callable copies the buffer instead of calling through the table.
class EventFn {
 public:
  /// Inline capacity. Sized for the simulator's largest hot handler shape:
  /// a `this` pointer, a shared_ptr, and a few words (e.g. the VOTE
  /// delivery closure: this + {txn, attempt, cohort_index, vote}).
  static constexpr std::size_t kInlineBytes = 48;

  EventFn() noexcept = default;

  template <typename F,
            typename D = std::remove_cvref_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                        std::is_invocable_r_v<void, D&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
    Construct<D>(std::forward<F>(f));
  }

  EventFn(EventFn&& other) noexcept { MoveFrom(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { Reset(); }

  /// True if a callable is held.
  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Invokes the held callable. Precondition: engaged.
  void operator()() { ops_->invoke(buf_); }

  /// Destroys the held callable (if any) and disengages.
  void Reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  /// Replaces the held callable with `f`, constructed here: the callable is
  /// moved (or copied) once, where assigning an EventFn made from it would
  /// move it twice. An EventFn rvalue is moved in as by assignment.
  template <typename F>
  void Emplace(F&& f) {
    using D = std::remove_cvref_t<F>;
    Reset();
    if constexpr (std::is_same_v<D, EventFn>) {
      static_assert(!std::is_lvalue_reference_v<F>,
                    "an EventFn is moved in, never copied");
      MoveFrom(f);
    } else {
      static_assert(std::is_invocable_r_v<void, D&>,
                    "an event handler is invoked with no arguments");
      Construct<D>(std::forward<F>(f));
    }
  }

  /// Whether a callable of type F would be stored inline (tests/benchmarks).
  template <typename F>
  static constexpr bool StoredInline() {
    return FitsInline<std::remove_cvref_t<F>>();
  }

 private:
  struct Ops {
    void (*invoke)(void* buf);
    // Move-constructs dst's representation from src's and destroys src's.
    // Null when copying the buffer's bytes does that: a trivially copyable
    // inline callable, or the pointer of a heap-stored one.
    void (*relocate)(void* dst, void* src) noexcept;
    // Null when destruction is a no-op (a trivially destructible callable).
    void (*destroy)(void* buf) noexcept;
  };

  template <typename D>
  static constexpr bool FitsInline() {
    return sizeof(D) <= kInlineBytes &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D, typename F>
  void Construct(F&& f) {
    if constexpr (FitsInline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      *BufAs<D*>() = new D(std::forward<F>(f));
      ops_ = &kHeapOps<D>;
    }
  }

  template <typename T>
  T* BufAs() noexcept {
    return std::launder(reinterpret_cast<T*>(buf_));
  }

  template <typename D>
  static void InlineRelocate(void* dst, void* src) noexcept {
    D* s = std::launder(reinterpret_cast<D*>(src));
    ::new (dst) D(std::move(*s));
    s->~D();
  }

  template <typename D>
  static void InlineDestroy(void* buf) noexcept {
    std::launder(reinterpret_cast<D*>(buf))->~D();
  }

  template <typename D>
  static constexpr Ops kInlineOps = {
      /*invoke=*/[](void* buf) {
        (*std::launder(reinterpret_cast<D*>(buf)))();
      },
      /*relocate=*/std::is_trivially_copyable_v<D> ? nullptr
                                                    : &InlineRelocate<D>,
      /*destroy=*/std::is_trivially_destructible_v<D> ? nullptr
                                                       : &InlineDestroy<D>,
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      /*invoke=*/[](void* buf) {
        (**std::launder(reinterpret_cast<D**>(buf)))();
      },
      /*relocate=*/nullptr,
      /*destroy=*/[](void* buf) noexcept {
        delete *std::launder(reinterpret_cast<D**>(buf));
      },
  };

  void MoveFrom(EventFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->relocate != nullptr) {
        ops_->relocate(buf_, other.buf_);
      } else {
        std::memcpy(buf_, other.buf_, kInlineBytes);
      }
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace ccsim::sim

#endif  // CCSIM_SIM_EVENT_FN_H_
