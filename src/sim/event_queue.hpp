// Pending-event set: a binary min-heap ordered by (time, id) with lazy
// cancellation and tombstone compaction.
//
// Cancels come from timers and retries being withdrawn and from the
// network's single armed completion event moving when the earliest transfer
// finish time moves; a flow's rate change alone never touches the calendar.
// A pending-id hash set makes cancel O(1); cancelled entries stay in the
// heap as tombstones and are skipped on pop, keeping pop amortized O(log n).
//
// Should the tombstones ever outnumber the live events, the heap is
// compacted: cancelled entries are filtered out and the heap is rebuilt in
// place (Floyd's heapify, O(n)). Compaction never changes the pop order — the (time, id)
// order is total, so delivery is independent of the heap's internal layout.
// The amortized cost is O(1) per cancel: each compaction removes at least
// half of the heap, paid for by the cancels that created the tombstones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "sim/event.hpp"

namespace chicsim::sim {

class EventQueue {
 public:
  /// Insert an event; `id` must be unique and non-zero.
  void push(Event event);

  /// Mark an event cancelled; returns false when the id is not pending
  /// (already fired, already cancelled, or never scheduled). Amortized O(1).
  bool cancel(EventId id);

  /// True when no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const { return pending_.empty(); }

  /// Number of live events.
  [[nodiscard]] std::size_t size() const { return pending_.size(); }

  /// Time of the earliest live event; must not be called when empty.
  [[nodiscard]] util::SimTime next_time();

  /// Remove and return the earliest live event; must not be called on empty.
  [[nodiscard]] Event pop();

  // --- performance counters (microbenchmarks, RunMetrics) ---

  /// Cancelled entries still physically present in the heap.
  [[nodiscard]] std::size_t tombstone_count() const { return cancelled_.size(); }

  /// Physical heap entries right now (live + tombstones).
  [[nodiscard]] std::size_t heap_size() const { return heap_.size(); }

  /// Largest physical heap size ever reached. Bounded by
  /// O(max live events) thanks to compaction, instead of O(total cancels).
  [[nodiscard]] std::size_t peak_heap_size() const { return peak_heap_size_; }

  /// Number of tombstone compactions performed.
  [[nodiscard]] std::uint64_t compactions() const { return compactions_; }

  /// Total push() calls over the queue's lifetime.
  [[nodiscard]] std::uint64_t total_pushes() const { return total_pushes_; }

  /// Total successful cancel() calls over the queue's lifetime.
  [[nodiscard]] std::uint64_t total_cancels() const { return total_cancels_; }

 private:
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  /// Pop heap entries whose ids were cancelled until a live one is on top.
  void drop_cancelled_top();
  /// Physically remove every tombstone and re-heapify in place.
  void compact();
  [[nodiscard]] static bool before(const Event& a, const Event& b);

  /// Below this heap size lazy deletion is cheap enough that compaction
  /// bookkeeping would cost more than it saves.
  static constexpr std::size_t kCompactionMinHeap = 64;

  std::vector<Event> heap_;
  // detlint: order-insensitive: membership-only sets; delivery order is the (time, id) heap order
  std::unordered_set<EventId> pending_;    ///< live, cancellable ids
  std::unordered_set<EventId> cancelled_;  ///< tombstones still in the heap
  std::size_t peak_heap_size_ = 0;
  std::uint64_t compactions_ = 0;
  std::uint64_t total_pushes_ = 0;
  std::uint64_t total_cancels_ = 0;
};

}  // namespace chicsim::sim
