#include "data/storage.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace chicsim::data {

StorageManager::StorageManager(util::Megabytes capacity_mb) : capacity_mb_(capacity_mb) {
  CHICSIM_ASSERT_MSG(capacity_mb > 0.0, "storage capacity must be positive");
}

void StorageManager::add_master(DatasetId id, util::Megabytes size_mb) {
  CHICSIM_ASSERT_MSG(size_mb > 0.0, "master copy with non-positive size");
  CHICSIM_ASSERT_MSG(entries_.find(id) == entries_.end(), "master copy added twice");
  CHICSIM_ASSERT_MSG(used_mb_ + size_mb <= capacity_mb_ + util::kEpsilon,
                     "pinned master copies exceed storage capacity");
  Entry e;
  e.size_mb = size_mb;
  e.pinned = true;
  entries_.emplace(id, e);
  used_mb_ += size_mb;
}

StorageManager::AddOutcome StorageManager::add_replica(DatasetId id, util::Megabytes size_mb) {
  CHICSIM_ASSERT_MSG(size_mb > 0.0, "replica with non-positive size");
  AddOutcome outcome;
  auto it = entries_.find(id);
  if (it != entries_.end()) {
    touch(id);
    return outcome;  // already held
  }
  if (used_mb_ + size_mb > capacity_mb_) make_room(size_mb, outcome.evicted);
  Entry e;
  e.size_mb = size_mb;
  if (used_mb_ + size_mb > capacity_mb_ + util::kEpsilon) {
    // Could not clear enough space (everything left is pinned/referenced):
    // store transiently so the requesting job can still run.
    e.transient = true;
    ++stats_.overflow_adds;
  }
  lru_.push_front(id);
  e.lru_pos = lru_.begin();
  e.in_lru = true;
  entries_.emplace(id, e);
  used_mb_ += size_mb;
  outcome.newly_added = true;
  outcome.transient = e.transient;
  return outcome;
}

bool StorageManager::contains(DatasetId id) const { return entries_.find(id) != entries_.end(); }

bool StorageManager::lookup(DatasetId id) {
  bool present = contains(id);
  if (present) {
    ++stats_.hits;
    touch(id);
  } else {
    ++stats_.misses;
  }
  return present;
}

void StorageManager::touch(DatasetId id) {
  auto it = entries_.find(id);
  CHICSIM_ASSERT_MSG(it != entries_.end(), "touch of absent dataset");
  Entry& e = it->second;
  if (!e.in_lru) return;  // pinned
  lru_.erase(e.lru_pos);
  lru_.push_front(id);
  e.lru_pos = lru_.begin();
}

void StorageManager::acquire(DatasetId id) {
  auto it = entries_.find(id);
  CHICSIM_ASSERT_MSG(it != entries_.end(), "acquire of absent dataset");
  ++it->second.refcount;
}

void StorageManager::release(DatasetId id) {
  auto it = entries_.find(id);
  CHICSIM_ASSERT_MSG(it != entries_.end(), "release of absent dataset");
  Entry& e = it->second;
  CHICSIM_ASSERT_MSG(e.refcount > 0, "release without matching acquire");
  --e.refcount;
  if (e.refcount == 0 && e.transient) drop_entry(id);
}

bool StorageManager::evict(DatasetId id) {
  auto it = entries_.find(id);
  if (it == entries_.end()) return false;
  const Entry& e = it->second;
  if (e.pinned || e.refcount > 0) return false;
  drop_entry(id);
  ++stats_.evictions;
  return true;
}

std::vector<DatasetId> StorageManager::invalidate_unpinned() {
  std::vector<DatasetId> dropped;
  std::vector<DatasetId> victims;
  victims.reserve(entries_.size());
  for (auto& [id, e] : entries_) {
    if (e.pinned) {
      e.refcount = 0;  // referencing jobs are being killed by the caller
    } else {
      victims.push_back(id);
      if (!e.transient) dropped.push_back(id);
    }
  }
  for (DatasetId id : victims) {
    Entry& e = entries_.at(id);
    e.refcount = 0;
    e.transient = false;  // drop_entry path; transience already accounted
    drop_entry(id);
    ++stats_.evictions;
  }
  std::sort(dropped.begin(), dropped.end());
  return dropped;
}

bool StorageManager::is_pinned(DatasetId id) const {
  auto it = entries_.find(id);
  return it != entries_.end() && it->second.pinned;
}

std::vector<DatasetId> StorageManager::held() const {
  std::vector<DatasetId> out;
  out.reserve(entries_.size());
  for (const auto& [id, _] : entries_) out.push_back(id);
  return out;
}

void StorageManager::make_room(util::Megabytes needed_mb, std::vector<DatasetId>& evicted) {
  // Snapshot the eviction order (least recently used first) so dropping
  // entries cannot invalidate the iteration.
  std::vector<DatasetId> order(lru_.rbegin(), lru_.rend());
  for (DatasetId victim : order) {
    if (used_mb_ + needed_mb <= capacity_mb_ + util::kEpsilon) break;
    auto eit = entries_.find(victim);
    CHICSIM_ASSERT(eit != entries_.end());
    if (eit->second.refcount > 0) continue;
    // Transient entries were never durable copies (callers did not register
    // them anywhere), so their disappearance is not reported.
    bool was_transient = eit->second.transient;
    drop_entry(victim);
    ++stats_.evictions;
    if (!was_transient) evicted.push_back(victim);
  }
}

void StorageManager::drop_entry(DatasetId id) {
  auto it = entries_.find(id);
  CHICSIM_ASSERT(it != entries_.end());
  Entry& e = it->second;
  CHICSIM_ASSERT_MSG(!e.pinned, "attempt to drop a pinned master copy");
  if (e.in_lru) lru_.erase(e.lru_pos);
  used_mb_ -= e.size_mb;
  if (used_mb_ < 0.0) used_mb_ = 0.0;  // absorb FP dust
  entries_.erase(it);
}

}  // namespace chicsim::data
