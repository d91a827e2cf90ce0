#ifndef CCSIM_SIM_EVENT_FN_H_
#define CCSIM_SIM_EVENT_FN_H_

#include <cstddef>
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
/// static three-entry op table per callable type.
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
    if constexpr (FitsInline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      *BufAs<D*>() = new D(std::forward<F>(f));
      ops_ = &kHeapOps<D>;
    }
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
      ops_->destroy(buf_);
      ops_ = nullptr;
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
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* buf) noexcept;
  };

  template <typename D>
  static constexpr bool FitsInline() {
    return sizeof(D) <= kInlineBytes &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename T>
  T* BufAs() noexcept {
    return std::launder(reinterpret_cast<T*>(buf_));
  }

  template <typename D>
  static constexpr Ops kInlineOps = {
      /*invoke=*/[](void* buf) {
        (*std::launder(reinterpret_cast<D*>(buf)))();
      },
      /*relocate=*/[](void* dst, void* src) noexcept {
        D* s = std::launder(reinterpret_cast<D*>(src));
        ::new (dst) D(std::move(*s));
        s->~D();
      },
      /*destroy=*/[](void* buf) noexcept {
        std::launder(reinterpret_cast<D*>(buf))->~D();
      },
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      /*invoke=*/[](void* buf) {
        (**std::launder(reinterpret_cast<D**>(buf)))();
      },
      /*relocate=*/[](void* dst, void* src) noexcept {
        *static_cast<D**>(dst) = *std::launder(reinterpret_cast<D**>(src));
      },
      /*destroy=*/[](void* buf) noexcept {
        delete *std::launder(reinterpret_cast<D**>(buf));
      },
  };

  void MoveFrom(EventFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace ccsim::sim

#endif  // CCSIM_SIM_EVENT_FN_H_
