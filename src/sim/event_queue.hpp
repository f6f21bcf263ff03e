// Pending-event set: an indexed binary min-heap ordered by (time, id).
//
// Cancels come from timers and retries being withdrawn and from the
// network's single armed completion event moving when the earliest transfer
// finish time moves; a flow's rate change alone never touches the calendar.
// The heap holds small (time, id, slot) entries; each slot keeps its event's
// callback, tag and current heap position, and one id -> slot map serves the
// duplicate check, cancel and pop. cancel therefore removes the entry in
// place, so the heap always holds exactly the pending events and push,
// cancel and pop are O(log n). Delivery follows the total (time, id) order
// and so never depends on the heap's internal layout.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/event.hpp"

namespace chicsim::sim {

class EventQueue {
 public:
  /// Insert an event; `id` must be non-zero and not pending.
  void push(Event event);

  /// Remove a pending event; returns false when the id is not pending
  /// (already fired, already cancelled, or never scheduled). O(log n).
  bool cancel(EventId id);

  /// True when no events are pending.
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  /// Number of pending events.
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Time of the earliest pending event; must not be called when empty.
  [[nodiscard]] util::SimTime next_time() const;

  /// Remove and return the earliest pending event; must not be called on empty.
  [[nodiscard]] Event pop();

  // --- performance counters (microbenchmarks, RunMetrics) ---

  /// Largest number of events ever pending at once.
  [[nodiscard]] std::size_t peak_heap_size() const { return peak_heap_size_; }

  /// Always 0: the heap never holds cancelled events, so nothing is ever
  /// compacted. Kept only because the benchmark still reports it.
  [[nodiscard]] std::uint64_t compactions() const { return 0; }

  /// Total push() calls over the queue's lifetime.
  [[nodiscard]] std::uint64_t total_pushes() const { return total_pushes_; }

  /// Total successful cancel() calls over the queue's lifetime.
  [[nodiscard]] std::uint64_t total_cancels() const { return total_cancels_; }

 private:
  struct Entry {
    util::SimTime time;
    EventId id;
    std::size_t slot;
  };
  struct Slot {
    EventFn fn;
    const char* tag = nullptr;
    std::size_t pos = 0;  ///< index of this event's entry in heap_
  };
  // detlint: order-insensitive: lookup-only map; delivery order is the (time, id) heap order
  using SlotMap = std::unordered_map<EventId, std::size_t>;

  [[nodiscard]] static bool before(const Entry& a, const Entry& b);
  /// Store `e` at heap position `pos` and record that position in its slot.
  void place(std::size_t pos, const Entry& e);
  /// Move `e` up from the hole at `pos` to where it belongs.
  void sift_up(std::size_t pos, const Entry& e);
  /// Move `e` down from the hole at `pos` to where it belongs.
  void sift_down(std::size_t pos, const Entry& e);
  /// Remove the event `it` names from the map, its slot and the heap.
  Event take(SlotMap::iterator it);

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::size_t> free_slots_;
  SlotMap slot_of_;  ///< pending id -> index into slots_
  std::size_t peak_heap_size_ = 0;
  std::uint64_t total_pushes_ = 0;
  std::uint64_t total_cancels_ = 0;
};

}  // namespace chicsim::sim
