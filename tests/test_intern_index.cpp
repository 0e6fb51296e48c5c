// The shared open-addressing index (util/intern_index.hpp) and the tables
// built on it.
//
// InternIndex: random probe/insert/assign/erase/reserve sequences against a
// std::unordered_map reference, through many growths and tombstone reuses,
// once with std::hash and once with a hash that is the same for every key
// (equality alone separates keys then); the name index runs the same
// sequences, and the eval-string pool keeps its ids dense. InternShards:
// four threads intern overlapping waveform sets into one WaveformTable and
// store and look up overlapping keys in one EvalMemo; one shard holding
// thousands of waveforms grows its index many times, and two waveforms
// whose stored hashes collide keep their own refs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/batch_arena.hpp"
#include "core/name_index.hpp"
#include "core/wave_table.hpp"
#include "util/intern_index.hpp"

namespace {

using namespace tv;

std::uint32_t std_hash(std::string_view s) {
  return static_cast<std::uint32_t>(std::hash<std::string_view>{}(s));
}
std::uint32_t constant_hash(std::string_view) { return 0x5eed; }

/// A string -> value map over the index: the index's id is the entry
/// number, and an erased entry stays behind in `keys_` unreferenced.
class Map {
 public:
  explicit Map(std::uint32_t (*hash)(std::string_view)) : hash_(hash) {}

  InternIndex::Probe probe(std::string_view key) const {
    return index_.probe(hash_(key), [&](std::uint32_t id) { return keys_[id] == key; });
  }
  std::optional<int> find(std::string_view key) const {
    const InternIndex::Probe p = probe(key);
    if (p.id == InternIndex::kAbsent) return std::nullopt;
    return values_[p.id];
  }
  bool insert_if_absent(std::string_view key, int value) {
    const InternIndex::Probe p = probe(key);
    if (p.id != InternIndex::kAbsent) return false;
    index_.insert(p, keys_.size());
    keys_.emplace_back(key);
    values_.push_back(value);
    return true;
  }
  void assign(std::string_view key, int value) {
    const InternIndex::Probe p = probe(key);
    if (p.id != InternIndex::kAbsent) {
      values_[p.id] = value;
    } else {
      insert_if_absent(key, value);
    }
  }
  void erase(std::string_view key) {
    const InternIndex::Probe p = probe(key);
    if (p.id != InternIndex::kAbsent) index_.erase(p);
  }
  const InternIndex& index() const { return index_; }
  InternIndex& index() { return index_; }

 private:
  std::uint32_t (*hash_)(std::string_view);
  InternIndex index_;
  std::vector<std::string> keys_;
  std::vector<int> values_;
};

/// Runs `ops` random operations over `universe` keys against the
/// reference, checking every lookup, the size, and the load limit. Phases
/// bias the mix toward inserts, then erases, then back, so the table grows
/// several times and refills slots that erases tombstoned.
void run_random_sequence(std::uint32_t (*hash)(std::string_view), int universe, int ops,
                         std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Map map(hash);
  NameIndex names;
  std::unordered_map<std::string, int> ref;
  std::size_t growths = 0;
  std::size_t slots = 0;
  for (int op = 0; op < ops; ++op) {
    const bool filling = (op / (ops / 6)) % 2 == 0;
    const std::string key = "k" + std::to_string(rng() % universe);
    const int value = static_cast<int>(rng() % 1000);
    const unsigned pick = rng() % 10;
    const unsigned inserts = filling ? 5 : 1;
    const unsigned assigns = filling ? 7 : 3;
    const unsigned erases = filling ? 9 : 10;
    if (pick < inserts) {
      const bool added = map.insert_if_absent(key, value);
      EXPECT_EQ(added, names.insert_if_absent(key, static_cast<SignalId>(value)));
      EXPECT_EQ(added, ref.emplace(key, value).second) << key;
    } else if (pick < assigns) {
      map.assign(key, value);
      names.assign(key, static_cast<SignalId>(value));
      ref[key] = value;
    } else if (pick < erases) {
      map.erase(key);
      names.erase(key);
      ref.erase(key);
    } else {
      const std::size_t more = rng() % 64;
      map.index().reserve(more);
      names.reserve(more);
    }
    const auto it = ref.find(key);
    const std::optional<int> got = map.find(key);
    ASSERT_EQ(got.has_value(), it != ref.end()) << "op " << op << " key " << key;
    const SignalId named = names.find(key);
    if (it != ref.end()) {
      ASSERT_EQ(*got, it->second) << "op " << op;
      ASSERT_EQ(named, static_cast<SignalId>(it->second)) << "op " << op;
    } else {
      ASSERT_EQ(named, NameIndex::kAbsent) << "op " << op;
    }
    ASSERT_EQ(map.index().size(), ref.size());
    ASSERT_EQ(names.size(), ref.size());
    ASSERT_LE(2 * map.index().size(), map.index().slot_count());
    if (map.index().slot_count() > slots) {
      ++growths;
      slots = map.index().slot_count();
    }
  }
  for (int k = 0; k < universe; ++k) {
    const std::string key = "k" + std::to_string(k);
    const auto it = ref.find(key);
    const std::optional<int> got = map.find(key);
    ASSERT_EQ(got.has_value(), it != ref.end()) << key;
    if (got) {
      EXPECT_EQ(*got, it->second) << key;
    }
  }
  EXPECT_GE(growths, 4u);
}

TEST(InternIndex, RandomSequencesMatchAnUnorderedMap) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_random_sequence(std_hash, 3000, 60000, seed);
  }
}

TEST(InternIndex, ConstantHashSeparatesKeysByEqualityAlone) {
  run_random_sequence(constant_hash, 300, 20000, 11);
}

TEST(InternIndex, ErasedSlotsAreReusedWithoutGrowth) {
  // Fill, empty and refill with fresh keys, round after round: the table is
  // sized from the live keys, so the tombstones never make it grow.
  Map map(std_hash);
  std::size_t peak = 0;
  for (int round = 0; round < 50; ++round) {
    const std::string prefix = "r" + std::to_string(round) + "/";
    for (int i = 0; i < 500; ++i) map.assign(prefix + std::to_string(i), i);
    for (int i = 0; i < 500; ++i) map.erase(prefix + std::to_string(i));
    EXPECT_EQ(map.index().size(), 0u);
    if (round == 0) peak = map.index().slot_count();
    EXPECT_LE(map.index().slot_count(), 2 * peak) << "round " << round;
  }
}

TEST(InternIndex, AnIdPastTheSlotMarkersIsRefusedUnchanged) {
  Map map(std_hash);
  map.assign("kept", 1);
  InternIndex& index = map.index();
  const InternIndex::Probe p = map.probe("new");
  ASSERT_EQ(p.id, InternIndex::kAbsent);
  EXPECT_THROW(index.insert(p, std::size_t{0xFFFFFFFEu}), std::length_error);
  EXPECT_THROW(index.insert(p, std::size_t{1} << 32), std::length_error);
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(map.find("kept"), 1);
  EXPECT_EQ(map.find("new"), std::nullopt);
}

TEST(InternIndex, EvalStrPoolIdsAreDenseWithZeroForTheEmptyString) {
  // The batch arena fills fresh rows with id 0 meaning "": an empty string
  // must never get an id of its own, however often it is interned.
  EvalStrPool pool;
  EXPECT_EQ(pool.intern(""), 0u);
  std::vector<std::string> strs = {""};
  for (int i = 0; i < 2000; ++i) {
    const std::string s = "W" + std::to_string(i % 700);
    const std::uint32_t id = pool.intern(s);
    if (id == strs.size()) strs.push_back(s);
    ASSERT_LT(id, strs.size());
    EXPECT_EQ(strs[id], s);
    EXPECT_EQ(pool.intern(""), 0u);
  }
  EXPECT_EQ(pool.size(), 701u);
  for (std::uint32_t id = 0; id < strs.size(); ++id) EXPECT_EQ(pool.str(id), strs[id]);
}

// --- the shard indexes under concurrency -------------------------------

constexpr Time kPeriod = 400;

/// A waveform STABLE except for one CHANGE window [begin, end).
Waveform window(Time begin, Time end) {
  Waveform w(kPeriod, Value::Stable);
  w.set(begin, end, Value::Change);
  return w;
}

TEST(InternShards, OverlappingInternsGiveEachClassOneRef) {
  // Class c < kWindows is window c; the last class is the constant STABLE
  // waveform, entered under several skews (equivalent, not equal).
  constexpr int kWindows = 2400;
  std::vector<Waveform> members;
  std::vector<int> class_of;  // each member's class
  for (int c = 0; c < kWindows; ++c) {
    members.push_back(window(c % 300, c % 300 + 1 + c / 300));
    class_of.push_back(c);
  }
  for (Time skew = 0; skew < 8; ++skew) {
    Waveform w(kPeriod, Value::Stable);
    w.set_skew(skew);
    members.push_back(w);
    class_of.push_back(kWindows);
  }
  InternContext ctx;
  std::vector<std::vector<WaveformRef>> refs(4, std::vector<WaveformRef>(members.size()));
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      std::vector<std::size_t> order(members.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::shuffle(order.begin(), order.end(), std::mt19937_64(t + 1));
      // Each thread takes three quarters of the members: every pair of
      // threads overlaps, no thread sees them all.
      for (std::size_t i = 0; i < order.size(); ++i) {
        if (order[i] % 4 == static_cast<std::size_t>(t)) continue;
        refs[t][order[i]] = ctx.table.intern(members[order[i]]);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  std::vector<WaveformRef> ref_of_class(kWindows + 1, kNoWaveform);
  for (int t = 0; t < 4; ++t) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (i % 4 == static_cast<std::size_t>(t)) continue;
      const WaveformRef r = refs[t][i];
      ASSERT_NE(r, kNoWaveform);
      WaveformRef& want = ref_of_class[class_of[i]];
      if (want == kNoWaveform) want = r;
      ASSERT_EQ(r, want) << "member " << i << " thread " << t;
      EXPECT_TRUE(ctx.table.get(r).equivalent(members[i]));
    }
  }
  std::vector<WaveformRef> distinct = ref_of_class;
  std::sort(distinct.begin(), distinct.end());
  EXPECT_EQ(std::unique(distinct.begin(), distinct.end()), distinct.end());
  EXPECT_EQ(ctx.table.size(), static_cast<std::size_t>(kWindows + 1));
}

TEST(InternShards, OverlappingMemoStoresAllHit) {
  constexpr int kKeys = 3000;
  auto key_of = [](int k) {
    Primitive p;
    p.kind = PrimKind::And;
    p.dmin = k % 97;
    p.dmax = p.dmin + k / 97;
    p.inputs.resize(1);
    MemoKey key;
    key.start(p);
    key.add_pin(static_cast<WaveformRef>(k % 13), k % 2 == 1, 0, 10, k % 3 ? "" : "W");
    return key;
  };
  EvalMemo memo;
  std::vector<std::thread> workers;
  std::vector<int> misses(4, 0);
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      // Thread t stores keys [t * kKeys / 8, t * kKeys / 8 + kKeys / 2):
      // neighbours share a quarter of the keys, and every key it stored
      // must hit with the one result all threads agree on.
      const int first = t * kKeys / 8;
      for (int k = first; k < first + kKeys / 2; ++k) {
        memo.store(key_of(k), MemoResult{static_cast<WaveformRef>(k), std::to_string(k)});
      }
      for (int k = first; k < first + kKeys / 2; ++k) {
        const std::optional<MemoResult> hit = memo.lookup(key_of(k));
        if (!hit || hit->wave != static_cast<WaveformRef>(k) ||
            hit->eval_str != std::to_string(k)) {
          ++misses[t];
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(misses[t], 0) << "thread " << t;
  const int stored = 3 * kKeys / 8 + kKeys / 2;
  EXPECT_EQ(memo.entries(), static_cast<std::size_t>(stored));
  std::size_t seen = 0;
  memo.for_each([&](const MemoKeyFields& f, const MemoResult& r) {
    ++seen;
    EXPECT_EQ(f.dmin, static_cast<Time>(r.wave % 97));
  });
  EXPECT_EQ(seen, static_cast<std::size_t>(stored));
}

TEST(InternShards, OneShardHoldsThousandsOfWaveforms) {
  // Windows whose canonical hash lands in shard 0: the shard's index hashes
  // on the bits above the shard bits, so it still spreads them.
  std::vector<Waveform> shard0;
  for (Time b = 0; b < kPeriod && shard0.size() < 2500; ++b) {
    for (Time e = b + 1; e <= kPeriod && shard0.size() < 2500; ++e) {
      Waveform w = window(b, e);
      if ((w.canonical_hash() & 0xF) == 0) shard0.push_back(std::move(w));
    }
  }
  ASSERT_EQ(shard0.size(), 2500u);
  WaveformTable table;
  std::vector<WaveformRef> refs;
  for (const Waveform& w : shard0) refs.push_back(table.intern(w));
  EXPECT_EQ(table.size(), shard0.size());
  for (std::size_t i = 0; i < shard0.size(); ++i) {
    ASSERT_EQ(refs[i] & 0xF, 0u);
    ASSERT_EQ(refs[i] >> 4, i) << "slots are handed out in first-seen order";
    ASSERT_EQ(table.intern(shard0[i]), refs[i]);
    ASSERT_TRUE(table.get(refs[i]).equivalent(shard0[i]));
  }
  EXPECT_EQ(table.lookups(), 2 * shard0.size());
}

TEST(InternShards, HashCollisionInOneShardKeepsTwoRefs) {
  // Two different waveforms whose canonical hashes agree on the shard bits
  // and on the 32 bits above them, which the shard's index stores: only the
  // equality callback tells them apart. The pair was found by sorting the
  // hashes of every one-window waveform of this period.
  Waveform a(1000, Value::Stable);
  a.set(720, 740, Value::Change);
  Waveform b(1000, Value::Stable);
  b.set(347, 594, Value::Zero);
  constexpr std::uint64_t kStored = (std::uint64_t{1} << 36) - 1;
  ASSERT_EQ(a.canonical_hash() & kStored, b.canonical_hash() & kStored)
      << "canonical_hash changed: find a new colliding pair";
  ASSERT_FALSE(a.equivalent(b));

  WaveformTable table;
  const WaveformRef ra = table.intern(a);
  const WaveformRef rb = table.intern(b);
  EXPECT_NE(ra, rb);
  EXPECT_EQ(table.intern(a), ra);
  EXPECT_EQ(table.intern(b), rb);
  EXPECT_TRUE(table.get(rb).equivalent(b));
  EXPECT_EQ(table.size(), 2u);
}

}  // namespace
