#include "data/storage.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace chicsim::data {

namespace {

/// The first entry whose id is not below `id` (entries are sorted by id).
template <class Entries>
auto lower_bound_id(Entries& entries, DatasetId id) {
  return std::lower_bound(entries.begin(), entries.end(), id,
                          [](const auto& e, DatasetId d) { return e.id < d; });
}

/// The entry holding `id`, or nullptr.
template <class Entries>
auto* find_entry(Entries& entries, DatasetId id) {
  auto it = lower_bound_id(entries, id);
  return it != entries.end() && it->id == id ? &*it : nullptr;
}

}  // namespace

StorageManager::StorageManager(util::Megabytes capacity_mb) : capacity_mb_(capacity_mb) {
  CHICSIM_ASSERT_MSG(capacity_mb > 0.0, "storage capacity must be positive");
}

void StorageManager::add_master(DatasetId id, util::Megabytes size_mb) {
  CHICSIM_ASSERT_MSG(size_mb > 0.0, "master copy with non-positive size");
  auto at = lower_bound_id(entries_, id);
  CHICSIM_ASSERT_MSG(at == entries_.end() || at->id != id, "master copy added twice");
  CHICSIM_ASSERT_MSG(used_mb_ + size_mb <= capacity_mb_ + util::kEpsilon,
                     "pinned master copies exceed storage capacity");
  entries_.insert(at, Entry{.id = id, .size_mb = size_mb, .pinned = true});
  used_mb_ += size_mb;
}

StorageManager::AddOutcome StorageManager::add_replica(DatasetId id, util::Megabytes size_mb) {
  CHICSIM_ASSERT_MSG(size_mb > 0.0, "replica with non-positive size");
  AddOutcome outcome;
  if (Entry* e = find_entry(entries_, id)) {
    e->last_use = ++use_clock_;
    return outcome;  // already held: a touch
  }
  if (used_mb_ + size_mb > capacity_mb_) make_room(size_mb, outcome.evicted);
  // Could not clear enough space (everything left is pinned/referenced):
  // store transiently so the requesting job can still run.
  outcome.transient = used_mb_ + size_mb > capacity_mb_ + util::kEpsilon;
  if (outcome.transient) ++stats_.overflow_adds;
  entries_.insert(lower_bound_id(entries_, id),
                  Entry{.id = id,
                        .size_mb = size_mb,
                        .transient = outcome.transient,
                        .last_use = ++use_clock_});
  used_mb_ += size_mb;
  outcome.newly_added = true;
  return outcome;
}

bool StorageManager::contains(DatasetId id) const { return find_entry(entries_, id) != nullptr; }

bool StorageManager::lookup(DatasetId id) {
  Entry* e = find_entry(entries_, id);
  if (e == nullptr) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  e->last_use = ++use_clock_;
  return true;
}

void StorageManager::touch(DatasetId id) {
  Entry* e = find_entry(entries_, id);
  CHICSIM_ASSERT_MSG(e != nullptr, "touch of absent dataset");
  e->last_use = ++use_clock_;
}

void StorageManager::acquire(DatasetId id) {
  Entry* e = find_entry(entries_, id);
  CHICSIM_ASSERT_MSG(e != nullptr, "acquire of absent dataset");
  ++e->refcount;
}

void StorageManager::release(DatasetId id) {
  Entry* e = find_entry(entries_, id);
  CHICSIM_ASSERT_MSG(e != nullptr, "release of absent dataset");
  CHICSIM_ASSERT_MSG(e->refcount > 0, "release without matching acquire");
  --e->refcount;
  if (e->refcount == 0 && e->transient) drop_entry(*e);
}

bool StorageManager::evict(DatasetId id) {
  const Entry* e = find_entry(entries_, id);
  if (e == nullptr || e->pinned || e->refcount > 0) return false;
  drop_entry(*e);
  ++stats_.evictions;
  return true;
}

std::vector<DatasetId> StorageManager::invalidate_unpinned() {
  // One pass in id order: masters stay (their referencing jobs are being
  // killed by the caller), everything else goes.
  std::vector<DatasetId> dropped;
  std::size_t kept = 0;
  for (Entry& e : entries_) {
    if (e.pinned) {
      e.refcount = 0;
      entries_[kept++] = e;
      continue;
    }
    if (!e.transient) dropped.push_back(e.id);
    used_mb_ = std::max(used_mb_ - e.size_mb, 0.0);  // absorb FP dust
    ++stats_.evictions;
  }
  entries_.resize(kept);
  return dropped;
}

bool StorageManager::is_pinned(DatasetId id) const {
  const Entry* e = find_entry(entries_, id);
  return e != nullptr && e->pinned;
}

std::vector<DatasetId> StorageManager::held() const {
  std::vector<DatasetId> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.id);
  return out;
}

void StorageManager::make_room(util::Megabytes needed_mb, std::vector<DatasetId>& evicted) {
  while (used_mb_ + needed_mb > capacity_mb_ + util::kEpsilon) {
    const Entry* victim = nullptr;
    for (const Entry& e : entries_) {
      if (e.pinned || e.refcount > 0) continue;
      if (victim == nullptr || e.last_use < victim->last_use) victim = &e;
    }
    if (victim == nullptr) return;  // everything left is pinned or referenced
    // Transient entries were never durable copies (callers did not register
    // them anywhere), so their disappearance is not reported.
    if (!victim->transient) evicted.push_back(victim->id);
    drop_entry(*victim);
    ++stats_.evictions;
  }
}

void StorageManager::drop_entry(const Entry& e) {
  CHICSIM_ASSERT_MSG(!e.pinned, "attempt to drop a pinned master copy");
  used_mb_ = std::max(used_mb_ - e.size_mb, 0.0);  // absorb FP dust
  entries_.erase(entries_.begin() + (&e - entries_.data()));
}

}  // namespace chicsim::data
