// Simulation context: scheduler + seeded RNG + arena lifetime anchor.
//
// A `Simulator` owns the virtual clock, the root random stream, and a
// `MonotonicArena` that holds every component created through `make<T>()`.
// Events capture raw pointers into the arena, which is safe because nothing
// is destroyed until the Simulator is — or until `reset()`, which tears the
// whole object graph down at once (destructors in reverse creation order),
// rewinds the arena, and clears the scheduler while retaining all of their
// capacity. A reset simulator rebuilds the same scenario without touching
// the system allocator and behaves bit-identically to a freshly constructed
// one: same `stream(tag)` derivation, same slot/sequence assignment.
#pragma once

#include <cstdint>
#include <memory_resource>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/timer.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace pdos {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : seed_(seed), rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  ~Simulator() { destroy_components(); }

  Scheduler& scheduler() { return scheduler_; }
  const Scheduler& scheduler() const { return scheduler_; }
  Rng& rng() { return rng_; }

  /// The seed this run was constructed (or last reset) with.
  std::uint64_t seed() const { return seed_; }

  /// An independent random stream derived from the run seed and `tag`.
  /// Unlike `rng().fork()`, the stream does not depend on construction
  /// order or on how many draws other components have made — two runs with
  /// the same seed give every tagged component bit-identical randomness.
  Rng stream(std::uint64_t tag) const { return Rng(derive_seed(seed_, tag)); }

  Time now() const { return scheduler_.now(); }

  template <typename F>
  EventId schedule(Time delay, F&& fn) {
    return scheduler_.schedule(delay, std::forward<F>(fn));
  }
  template <typename F>
  EventId schedule_at(Time when, F&& fn) {
    return scheduler_.schedule_at(when, std::forward<F>(fn));
  }
  bool cancel(EventId id) { return scheduler_.cancel(id); }

  /// Pre-size the event queue; see Scheduler::reserve.
  void reserve_events(std::size_t n) { scheduler_.reserve(n); }

  /// Run the simulation until `horizon` seconds of virtual time.
  std::uint64_t run_until(Time horizon) { return scheduler_.run_until(horizon); }
  /// Drain every pending event.
  std::uint64_t run() { return scheduler_.run(); }

  /// Construct a component whose lifetime matches the simulation (until
  /// destruction or the next `reset()`). Storage comes from the arena.
  template <typename T, typename... Args>
  T* make(Args&&... args) {
    void* storage = arena_.allocate(sizeof(T), alignof(T));
    T* raw = ::new (storage) T(std::forward<Args>(args)...);
    if constexpr (!std::is_trivially_destructible_v<T>) {
      dtors_.push_back(Dtor{[](void* p) { static_cast<T*>(p)->~T(); }, raw});
    }
    return raw;
  }

  /// Construct a contiguous array of `n` components in one arena block —
  /// the flat hot-state tables (`TcpSenderHot` et al.) the large-scale
  /// scenarios iterate. Every element is constructed from the same `args`;
  /// lifetime matches `make<T>` (destroyed, in reverse order, by the next
  /// `reset()` or the destructor).
  template <typename T, typename... Args>
  T* make_array(std::size_t n, const Args&... args) {
    PDOS_REQUIRE(n > 0, "Simulator::make_array: need n > 0");
    void* storage = arena_.allocate(n * sizeof(T), alignof(T));
    T* base = static_cast<T*>(storage);
    for (std::size_t i = 0; i < n; ++i) {
      T* raw = ::new (static_cast<void*>(base + i)) T(args...);
      if constexpr (!std::is_trivially_destructible_v<T>) {
        dtors_.push_back(
            Dtor{[](void* p) { static_cast<T*>(p)->~T(); }, raw});
      }
    }
    return base;
  }

  /// The arena components and their internal containers live in. Pass to
  /// pmr-aware members (packet `Fifo`s, route tables, reorder buffers) so a
  /// component's working set shares the component's own blocks.
  std::pmr::memory_resource* memory() { return &arena_; }
  const MonotonicArena& arena() const { return arena_; }

  /// Tear down this run and become a fresh simulator seeded with `seed`:
  /// components are destroyed in reverse creation order, the scheduler is
  /// cleared, and the arena is rewound — all capacity (slabs, heap arrays,
  /// arena blocks) is retained, so rebuilding the same scenario performs no
  /// system allocation. Everything observable afterwards (streams, event
  /// order, slot assignment) matches a newly constructed Simulator(seed).
  void reset(std::uint64_t seed) {
    destroy_components();   // Timer members cancel into the live scheduler
    scheduler_.reset();     // ... so the scheduler must be cleared after
    arena_.rewind();
    seed_ = seed;
    rng_ = Rng(seed);
  }

 private:
  struct Dtor {
    void (*fn)(void*);
    void* obj;
  };

  void destroy_components() {
    for (auto it = dtors_.rbegin(); it != dtors_.rend(); ++it) {
      it->fn(it->obj);
    }
    dtors_.clear();
  }

  std::uint64_t seed_;
  Scheduler scheduler_;
  Rng rng_;
  MonotonicArena arena_;
  std::vector<Dtor> dtors_;  // creation order; capacity survives reset
};

}  // namespace pdos
