// Property test: StorageManager against an executable reference model.
//
// The reference model is a deliberately naive reimplementation of the LRU
// semantics (ordered vector, linear scans). We drive both with long random
// operation sequences across several seeds (TEST_P) and require identical
// observable behaviour: presence, used bytes, eviction victims, pinning and
// reference-count protection, transient placement, hit/miss accounting and
// the site-crash wipe.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "data/storage.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace chicsim::data {
namespace {

/// Naive reference implementation of the storage semantics.
class ReferenceStorage {
 public:
  explicit ReferenceStorage(double capacity) : capacity_(capacity) {}

  struct Entry {
    double size = 0.0;
    bool pinned = false;
    bool transient = false;
    int refcount = 0;
  };

  bool contains(DatasetId id) const { return entries_.count(id) > 0; }
  double used() const {
    double total = 0.0;
    for (const auto& [id, e] : entries_) total += e.size;
    return total;
  }

  void add_master(DatasetId id, double size) {
    Entry e;
    e.size = size;
    e.pinned = true;
    entries_[id] = e;
  }

  /// Returns (newly_added, transient, evicted ids in order).
  std::tuple<bool, bool, std::vector<DatasetId>> add_replica(DatasetId id, double size) {
    if (contains(id)) {
      touch(id);
      return {false, false, {}};
    }
    std::vector<DatasetId> evicted;
    // Evict LRU unreferenced, unpinned, reporting only non-transient.
    while (used() + size > capacity_ + 1e-9) {
      DatasetId victim = kNoDataset;
      for (DatasetId cand : lru_) {  // lru_ front = LRU
        const Entry& e = entries_.at(cand);
        if (e.refcount == 0) {
          victim = cand;
          break;
        }
      }
      if (victim == kNoDataset) break;
      if (!entries_.at(victim).transient) evicted.push_back(victim);
      drop(victim);
    }
    Entry e;
    e.size = size;
    e.transient = used() + size > capacity_ + 1e-9;
    entries_[id] = e;
    lru_.push_back(id);  // back = MRU
    return {true, e.transient, evicted};
  }

  void touch(DatasetId id) {
    auto it = std::find(lru_.begin(), lru_.end(), id);
    if (it != lru_.end()) {
      lru_.erase(it);
      lru_.push_back(id);
    }
  }

  /// Presence test that counts a hit (and touches) or a miss.
  bool lookup(DatasetId id) {
    if (!contains(id)) {
      ++misses_;
      return false;
    }
    ++hits_;
    touch(id);
    return true;
  }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

  /// Site crash: drop every unpinned entry, zero the masters' refcounts,
  /// and report the dropped durable (non-transient) ids in ascending order.
  std::vector<DatasetId> invalidate_unpinned() {
    std::vector<DatasetId> dropped;
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (it->second.pinned) {
        it->second.refcount = 0;
        ++it;
        continue;
      }
      if (!it->second.transient) dropped.push_back(it->first);
      it = entries_.erase(it);
    }
    lru_.clear();
    return dropped;
  }

  void acquire(DatasetId id) { ++entries_.at(id).refcount; }

  void release(DatasetId id) {
    Entry& e = entries_.at(id);
    --e.refcount;
    if (e.refcount == 0 && e.transient) drop(id);
  }

  bool evict(DatasetId id) {
    auto it = entries_.find(id);
    if (it == entries_.end() || it->second.pinned || it->second.refcount > 0) return false;
    drop(id);
    return true;
  }

  int refcount(DatasetId id) const {
    auto it = entries_.find(id);
    return it == entries_.end() ? 0 : it->second.refcount;
  }

 private:
  void drop(DatasetId id) {
    entries_.erase(id);
    auto it = std::find(lru_.begin(), lru_.end(), id);
    if (it != lru_.end()) lru_.erase(it);
  }

  double capacity_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::map<DatasetId, Entry> entries_;
  std::vector<DatasetId> lru_;  // front = LRU, back = MRU
};

class StorageModelCheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StorageModelCheck, RandomOperationSequencesMatchReference) {
  util::Rng rng(GetParam());
  const double capacity = 1000.0;
  StorageManager real(capacity);
  ReferenceStorage ref(capacity);

  // A couple of pinned masters that always fit.
  real.add_master(100, 150.0);
  ref.add_master(100, 150.0);
  real.add_master(101, 150.0);
  ref.add_master(101, 150.0);

  const std::vector<DatasetId> universe{0, 1, 2, 3, 4, 5, 6, 7, 100, 101};
  for (int step = 0; step < 2000; ++step) {
    DatasetId id = universe[rng.index(universe.size())];
    double action = rng.uniform(0.0, 1.0);
    if (action < 0.35 && id < 100) {
      double size = rng.uniform(50.0, 400.0);
      auto outcome = real.add_replica(id, size);
      auto [added, transient, evicted] = ref.add_replica(id, size);
      ASSERT_EQ(outcome.newly_added, added) << "step " << step;
      ASSERT_EQ(outcome.transient, transient) << "step " << step;
      ASSERT_EQ(outcome.evicted, evicted) << "step " << step;
    } else if (action < 0.55) {
      if (real.contains(id)) {
        real.touch(id);
        ref.touch(id);
      }
    } else if (action < 0.75) {
      if (real.contains(id)) {
        real.acquire(id);
        ref.acquire(id);
      }
    } else if (action < 0.9) {
      if (real.contains(id) && ref.refcount(id) > 0) {
        real.release(id);
        ref.release(id);
      }
    } else {
      ASSERT_EQ(real.evict(id), ref.evict(id)) << "step " << step;
    }
    // Observable state must agree after every step.
    for (DatasetId d : universe) {
      ASSERT_EQ(real.contains(d), ref.contains(d)) << "step " << step << " dataset " << d;
    }
    ASSERT_NEAR(real.used_mb(), ref.used(), 1e-6) << "step " << step;
  }
}

// The same stream with lookups (hit/miss counts, and the touch on a hit as
// seen by later eviction victims) and occasional site-crash wipes mixed in.
TEST_P(StorageModelCheck, LookupsAndCrashWipesMatchReference) {
  util::Rng rng(GetParam());
  const double capacity = 1000.0;
  StorageManager real(capacity);
  ReferenceStorage ref(capacity);
  const std::vector<DatasetId> masters{100, 101};
  for (DatasetId m : masters) {
    real.add_master(m, 150.0);
    ref.add_master(m, 150.0);
  }

  const std::vector<DatasetId> universe{0, 1, 2, 3, 4, 5, 6, 7, 100, 101};
  int wipes = 0;
  for (int step = 0; step < 2000; ++step) {
    DatasetId id = universe[rng.index(universe.size())];
    double action = rng.uniform(0.0, 1.0);
    if (action < 0.3 && id < 100) {
      double size = rng.uniform(50.0, 400.0);
      auto outcome = real.add_replica(id, size);
      auto [added, transient, evicted] = ref.add_replica(id, size);
      ASSERT_EQ(outcome.newly_added, added) << "step " << step;
      ASSERT_EQ(outcome.transient, transient) << "step " << step;
      ASSERT_EQ(outcome.evicted, evicted) << "step " << step;
    } else if (action < 0.5) {
      ASSERT_EQ(real.lookup(id), ref.lookup(id)) << "step " << step;
    } else if (action < 0.7) {
      if (real.contains(id)) {
        real.acquire(id);
        ref.acquire(id);
      }
    } else if (action < 0.85) {
      if (real.contains(id) && ref.refcount(id) > 0) {
        real.release(id);
        ref.release(id);
      }
    } else if (action < 0.98) {
      ASSERT_EQ(real.evict(id), ref.evict(id)) << "step " << step;
    } else {
      ++wipes;
      ASSERT_EQ(real.invalidate_unpinned(), ref.invalidate_unpinned()) << "step " << step;
      // The masters' refcounts are zero: one more release is a misuse.
      for (DatasetId m : masters) {
        ASSERT_EQ(ref.refcount(m), 0);
        EXPECT_THROW(real.release(m), util::SimError) << "step " << step << " master " << m;
      }
    }
    for (DatasetId d : universe) {
      ASSERT_EQ(real.contains(d), ref.contains(d)) << "step " << step << " dataset " << d;
    }
    ASSERT_NEAR(real.used_mb(), ref.used(), 1e-6) << "step " << step;
    ASSERT_EQ(real.stats().hits, ref.hits()) << "step " << step;
    ASSERT_EQ(real.stats().misses, ref.misses()) << "step " << step;
  }
  EXPECT_GT(wipes, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorageModelCheck,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace chicsim::data
