#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace chicsim::sim {

bool EventQueue::before(const Entry& a, const Entry& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.id < b.id;
}

void EventQueue::push(Event event) {
  CHICSIM_ASSERT_MSG(event.id != kNoEvent, "event id must be non-zero");
  const std::size_t slot = free_slots_.empty() ? slots_.size() : free_slots_.back();
  const bool fresh = slot_of_.try_emplace(event.id, slot).second;
  CHICSIM_ASSERT_MSG(fresh, "duplicate event id");
  if (slot == slots_.size()) {
    slots_.emplace_back();
  } else {
    free_slots_.pop_back();
  }
  slots_[slot].fn = std::move(event.fn);
  slots_[slot].tag = event.tag;
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Entry{event.time, event.id, slot});
  ++total_pushes_;
  peak_heap_size_ = std::max(peak_heap_size_, heap_.size());
}

bool EventQueue::cancel(EventId id) {
  auto it = slot_of_.find(id);
  if (it == slot_of_.end()) return false;
  (void)take(it);
  ++total_cancels_;
  return true;
}

util::SimTime EventQueue::next_time() const {
  CHICSIM_ASSERT_MSG(!empty(), "next_time on empty queue");
  return heap_.front().time;
}

Event EventQueue::pop() {
  CHICSIM_ASSERT_MSG(!empty(), "pop on empty queue");
  return take(slot_of_.find(heap_.front().id));
}

Event EventQueue::take(SlotMap::iterator it) {
  const std::size_t slot = it->second;
  slot_of_.erase(it);
  free_slots_.push_back(slot);
  const std::size_t pos = slots_[slot].pos;
  Event event{heap_[pos].time, heap_[pos].id, std::move(slots_[slot].fn), slots_[slot].tag};
  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    if (pos > 0 && before(last, heap_[(pos - 1) / 2])) {
      sift_up(pos, last);
    } else {
      sift_down(pos, last);
    }
  }
  return event;
}

void EventQueue::place(std::size_t pos, const Entry& e) {
  heap_[pos] = e;
  slots_[e.slot].pos = pos;
}

void EventQueue::sift_up(std::size_t pos, const Entry& e) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!before(e, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, e);
}

void EventQueue::sift_down(std::size_t pos, const Entry& e) {
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], e)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, e);
}

}  // namespace chicsim::sim
