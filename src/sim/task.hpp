// sim::Task<T>: the simulator's one async idiom, a C++20 coroutine.
//
// A Task starts eagerly: calling a coroutine runs its body on the
// caller's stack up to the first co_await that has to wait. When the
// awaited completion fires, the body resumes inline, inside that
// callback; an awaiting parent Task is resumed by symmetric transfer
// when its child finishes. Awaiting therefore adds no event and moves
// none: a coroutine issues its device calls and schedules its events in
// the order an equivalent callback chain would.
//
// Ownership. A Task object owns its frame. Destroying it while the body
// is still suspended detaches it (sim::spawn): the frame frees itself
// when the body ends. Awaiting a Task makes the awaiter its parent.
//
// Awaiting a callback API (sim::until, sim::sleep, sim::barrier,
// sim::Join, block::read/write) hands the operation a copyable callback
// that shares a small heap state with the waiting frame. A completion
// that fires synchronously (MemDisk, a single-partition at_barrier) is
// recorded and the body simply continues, so a loop of inline
// completions runs flat instead of recursing. If every copy of the
// callback is destroyed without firing (an event still queued when the
// Simulator is torn down), the waiting chain can never resume: its
// detached root frame is destroyed, which destroys every frame below it.
#pragma once

#include <coroutine>
#include <deque>
#include <memory>
#include <optional>
#include <tuple>
#include <type_traits>
#include <utility>

#include "common/status.hpp"
#include "sim/simulator.hpp"

namespace storm::sim {

template <typename T = void>
class Task;

namespace detail {

struct PromiseBase {
  std::coroutine_handle<> self;
  PromiseBase* parent = nullptr;  // the Task awaiting this one, if any
  bool detached = false;          // no Task object owns the frame any more

  std::suspend_never initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename P>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<P> h) noexcept {
      PromiseBase& p = h.promise();
      if (p.parent != nullptr) return p.parent->self;
      if (p.detached) h.destroy();
      return std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  // Propagate to whoever resumed the body, as a callback chain would.
  void unhandled_exception() { throw; }
};

template <typename T>
struct Promise : PromiseBase {
  std::optional<T> value;
  Task<T> get_return_object();
  template <typename U>
  void return_value(U&& v) {
    value.emplace(std::forward<U>(v));
  }
  T take() { return std::move(*value); }
};

template <>
struct Promise<void> : PromiseBase {
  Task<void> get_return_object();
  void return_void() {}
  void take() {}
};

/// The chain waiting at `leaf` lost its last way to resume: destroy it
/// from its detached root down.
inline void abandon(PromiseBase* leaf) {
  PromiseBase* root = leaf;
  while (root->parent != nullptr) root = root->parent;
  if (root->detached) root->self.destroy();
}

/// Where a suspended coroutine waits for callbacks. Shared by the
/// callbacks; the waiting frame holds it only by pointer once suspended.
struct Waiter {
  PromiseBase* owner = nullptr;  // set while a frame is suspended here

  void suspend(PromiseBase& promise) { owner = &promise; }
  void wake() {
    if (owner != nullptr) std::exchange(owner, nullptr)->self.resume();
  }
  ~Waiter() {
    if (owner != nullptr) abandon(owner);
  }
};

}  // namespace detail

template <typename T>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::Promise<T>;

  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}
  Task(Task&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  Task& operator=(Task&&) = delete;
  ~Task() {
    if (!h_) return;
    // A finished body, or a child whose awaiting parent is itself being
    // destroyed, goes with this object; a running body is detached.
    if (h_.done() || h_.promise().parent != nullptr) {
      h_.destroy();
    } else {
      h_.promise().detached = true;
    }
  }

  bool done() const { return h_.done(); }

  struct Awaiter {
    std::coroutine_handle<promise_type> child;
    bool await_ready() const noexcept { return child.done(); }
    template <typename P>
    void await_suspend(std::coroutine_handle<P> parent) noexcept {
      child.promise().parent = &parent.promise();
    }
    T await_resume() { return child.promise().take(); }
  };
  Awaiter operator co_await() noexcept { return Awaiter{h_}; }

 private:
  std::coroutine_handle<promise_type> h_;
};

namespace detail {

template <typename T>
Task<T> Promise<T>::get_return_object() {
  auto h = std::coroutine_handle<Promise>::from_promise(*this);
  self = h;
  return Task<T>(h);
}

inline Task<void> Promise<void>::get_return_object() {
  auto h = std::coroutine_handle<Promise>::from_promise(*this);
  self = h;
  return Task<void>(h);
}

template <typename... Args>
struct UntilState : Waiter {
  std::optional<std::tuple<Args...>> result;
};

template <typename Start, typename... Args>
struct UntilAwaiter {
  using State = UntilState<Args...>;
  explicit UntilAwaiter(Start s) : start(std::move(s)) {}

  Start start;
  std::shared_ptr<State> hold;  // only until the frame suspends
  State* state = nullptr;

  bool await_ready() const noexcept { return false; }
  template <typename P>
  bool await_suspend(std::coroutine_handle<P> h) {
    hold = std::make_shared<State>();
    state = hold.get();
    start([s = hold](Args... args) {
      if (s->result) return;
      s->result.emplace(std::move(args)...);
      s->wake();
    });
    if (state->result) return false;  // completed inline: no nesting
    state->suspend(h.promise());
    auto release = std::move(hold);
    return true;
  }
  auto await_resume() {
    if constexpr (sizeof...(Args) == 1) {
      return std::get<0>(std::move(*state->result));
    } else if constexpr (sizeof...(Args) > 1) {
      return std::move(*state->result);
    }
  }
};

}  // namespace detail

/// Let a running Task finish on its own.
template <typename T>
void spawn(Task<T> task) {
  (void)task;
}

/// Await `task`, then hand its result to `done`: the bridge from a
/// coroutine body back to a callback API.
template <typename T, typename Done>
Task<> then(Task<T> task, Done done) {
  if constexpr (std::is_void_v<T>) {
    co_await task;
    done();
  } else {
    done(co_await task);
  }
}

/// Await a callback-style operation. `start(callback)` issues it; the
/// callback takes `Args...`, and co_await yields them: nothing for no
/// arguments, the value for one, a tuple for several.
template <typename... Args, typename Start>
auto until(Start start) {
  return detail::UntilAwaiter<Start, Args...>(std::move(start));
}

/// Resume `delay` ns from now on `executor` (schedule_in(0) posts to the
/// end of the current tick).
inline auto sleep(Executor executor, Duration delay) {
  return until<>([executor, delay](auto wake) {
    executor.schedule_in(delay, std::move(wake));
  });
}

/// Resume at the next window barrier (inline where at_barrier is).
inline auto barrier(Simulator& simulator) {
  return until<>(
      [&simulator](auto wake) { simulator.at_barrier(std::move(wake)); });
}

/// Joins N sub-completions into one: add() hands out a callback per
/// sub-operation, co_await waits for all of them and yields the first
/// error reported (or OK).
class Join {
 public:
  /// One more sub-operation to wait for; call the result when it ends.
  /// A sub-operation still running may call it while a frame awaits the
  /// Join: that sub-operation's own callback keeps the state alive.
  auto add() {
    ++state_->outstanding;
    return [s = state_->shared_from_this()](Status status) {
      s->record(status);
      if (--s->outstanding == 0) s->wake();
    };
  }
  /// A sub-operation that is itself a Task; it runs concurrently.
  void add(Task<Status> task) { spawn(then(std::move(task), add())); }
  /// Record a failure found without a sub-operation.
  void fail(Status status) { state_->record(status); }

  struct Awaiter {
    Join& join;
    bool await_ready() const noexcept {
      return join.state_->outstanding == 0;
    }
    template <typename P>
    void await_suspend(std::coroutine_handle<P> h) {
      join.state_->suspend(h.promise());
      auto release = std::move(join.hold_);
    }
    Status await_resume() { return join.state_->first_error; }
  };
  Awaiter operator co_await() noexcept { return Awaiter{*this}; }

 private:
  struct State : detail::Waiter, std::enable_shared_from_this<State> {
    int outstanding = 0;
    Status first_error;
    void record(const Status& status) {
      if (!status.is_ok() && first_error.is_ok()) first_error = status;
    }
  };
  std::shared_ptr<State> hold_ = std::make_shared<State>();  // until suspended
  State* state_ = hold_.get();  // then kept alive by the callbacks
};

/// A FIFO lock for control-plane Tasks (StorM's per-host attach mutex).
/// co_await lock() takes it inline when it is free and otherwise waits
/// its turn; the Guard it yields releases it when destroyed, so a holder
/// that reports its result before its Guard goes finishes that report
/// before the next holder runs. Release hands the lock on at one point:
/// on a single-partition simulator in a fresh event at the end of the
/// tick (schedule_in(0)), on a partitioned one at the window barrier
/// (inline when released there). The lock stays held until then, so a
/// lock requested in between queues behind the waiters already there.
/// Destroying the Mutex destroys the chains still waiting for it; a Guard
/// that outlives its Mutex releases nothing.
class Mutex {
  struct State {
    explicit State(Simulator& s) : simulator(&s) {}
    Simulator* simulator;
    bool locked = false;
    bool closed = false;  // the Mutex is gone
    std::deque<detail::PromiseBase*> waiters;

    void hand_off() {
      if (closed) return;
      if (waiters.empty()) {
        locked = false;
        return;
      }
      detail::PromiseBase* next = waiters.front();
      waiters.pop_front();
      next->self.resume();  // it holds the lock now
    }
  };

 public:
  explicit Mutex(Simulator& simulator)
      : state_(std::make_shared<State>(simulator)) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;
  ~Mutex() {
    state_->closed = true;
    for (detail::PromiseBase* waiter : std::exchange(state_->waiters, {})) {
      detail::abandon(waiter);
    }
  }

  /// Holds the lock (nothing once moved from).
  class Guard {
   public:
    Guard(Guard&& other) noexcept : state_(std::move(other.state_)) {}
    ~Guard() {
      if (state_ == nullptr || state_->closed) return;
      Simulator& simulator = *state_->simulator;
      auto hand_off = [s = std::move(state_)] { s->hand_off(); };
      if (simulator.partition_count() == 1) {
        simulator.schedule_in(0, std::move(hand_off));
      } else {
        simulator.at_barrier(std::move(hand_off));
      }
    }

   private:
    friend class Mutex;
    explicit Guard(std::shared_ptr<State> state) : state_(std::move(state)) {}
    std::shared_ptr<State> state_;
  };

  struct Awaiter {
    std::shared_ptr<State> state;
    bool await_ready() const noexcept {
      if (state->locked) return false;
      state->locked = true;
      return true;
    }
    template <typename P>
    void await_suspend(std::coroutine_handle<P> h) {
      state->waiters.push_back(&h.promise());
    }
    Guard await_resume() { return Guard(std::move(state)); }
  };
  Awaiter lock() { return Awaiter{state_}; }

 private:
  std::shared_ptr<State> state_;
};

}  // namespace storm::sim
