#include "world.h"

#include <map>

#include "src/scenarios/scenarios.h"
#include "src/target/builder.h"

namespace perfbench {

using duel::scenarios::SymEntry;

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int64_t Rng::Range(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
}

std::string Mismatch(const duel::QueryResult& r, const Expect& e) {
  if (!r.ok) {
    return "error: " + r.error;
  }
  if (r.truncated) {
    return "output truncated";
  }
  if (r.entries.size() != e.values.size()) {
    return "printed " + std::to_string(r.entries.size()) + " values, expected " +
           std::to_string(e.values.size());
  }
  for (size_t i = 0; i < e.values.size(); ++i) {
    if (r.entries[i].value != e.values[i]) {
      return "value " + std::to_string(i) + ": got '" + r.entries[i].value + "', expected '" +
             e.values[i] + "'";
    }
    if (!e.syms.empty() && r.entries[i].sym != e.syms[i]) {
      return "symbol " + std::to_string(i) + ": got '" + r.entries[i].sym + "', expected '" +
             e.syms[i] + "'";
    }
  }
  return "";
}

namespace {

std::vector<int32_t> RandomInts(Rng& rng, size_t n, int32_t lo, int32_t hi) {
  std::vector<int32_t> v(n);
  for (int32_t& x : v) {
    x = static_cast<int32_t>(rng.Range(lo, hi));
  }
  return v;
}

// A complete binary tree of `depth` levels in the scenario builder's preorder
// notation; `keys` receives the keys in preorder.
void TreeText(Rng& rng, int depth, std::string* out, std::vector<int32_t>* keys) {
  int32_t key = static_cast<int32_t>(rng.Range(0, 99999));
  keys->push_back(key);
  *out += '(' + std::to_string(key);
  if (depth > 1) {
    *out += ' ';
    TreeText(rng, depth - 1, out, keys);
    *out += ' ';
    TreeText(rng, depth - 1, out, keys);
  }
  *out += ')';
}

std::vector<int32_t> BuildTree(duel::target::TargetImage& image, Rng& rng,
                               const std::string& name, int depth) {
  std::string text;
  std::vector<int32_t> keys;
  TreeText(rng, depth, &text, &keys);
  duel::scenarios::BuildTree(image, name, text);
  return keys;
}

std::string Name(Rng& rng) {
  std::string s(static_cast<size_t>(rng.Range(4, 10)), 'a');
  for (char& c : s) {
    c = static_cast<char>('a' + rng.Range(0, 25));
  }
  return s;
}

}  // namespace

World BuildWorld(const WorldSpec& spec, uint64_t seed) {
  World w;
  w.image = std::make_unique<duel::target::TargetImage>();
  duel::target::TargetImage& image = *w.image;
  duel::target::InstallStandardFunctions(image);
  Rng rng(seed);
  if (spec.x_len > 0) {
    w.x = RandomInts(rng, spec.x_len, -1000, 1000);
    duel::scenarios::BuildIntArray(image, "x", w.x);
  }
  if (spec.recs_len > 0) {
    w.rec_keys = RandomInts(rng, spec.recs_len, -1000, 1000);
    duel::target::ImageBuilder b(image);
    duel::target::TypeRef rec =
        b.Struct("rec").Field("key", b.Int()).Field("pad", b.Arr(b.Char(), 60)).Build();
    duel::target::Addr base = b.Global("recs", b.Arr(rec, spec.recs_len));
    for (size_t i = 0; i < spec.recs_len; ++i) {
      b.PokeI32(base + i * rec->size(), w.rec_keys[i]);
    }
  }
  if (spec.tree_depth > 0) {
    w.root_keys = BuildTree(image, rng, "root", spec.tree_depth);
  }
  if (spec.list_len > 0) {
    w.list = RandomInts(rng, spec.list_len, -1000, 1000);
    duel::scenarios::BuildList(image, "L", w.list);
  }
  if (spec.symtab) {
    std::map<size_t, std::vector<SymEntry>> chains;
    for (size_t b = 0; b < 1024; ++b) {
      if (!rng.Chance(0.7)) {
        continue;  // an empty bucket
      }
      std::vector<SymEntry>& chain = chains[b];
      int64_t len = rng.Range(1, 3);
      for (int64_t i = 0; i < len; ++i) {
        chain.push_back({Name(rng), static_cast<int32_t>(rng.Range(-2, 5))});
      }
      if (chain.front().scope > 0) {
        w.hash_hits.emplace_back(b, chain.front().name);
      }
    }
    duel::scenarios::BuildSymtab(image, chains);
  }
  if (spec.a_len > 0) {
    w.a = RandomInts(rng, spec.a_len, -50, 50);
    duel::scenarios::BuildIntArray(image, "a", w.a);
  }
  if (spec.w_len > 0) {
    w.w = RandomInts(rng, spec.w_len, -50, 50);
    duel::scenarios::BuildIntArray(image, "w", w.w);
  }
  if (spec.s_len > 0) {
    w.s = RandomInts(rng, spec.s_len, -50, 50);
    duel::scenarios::BuildList(image, "S", w.s);
  }
  if (spec.t_depth > 0) {
    w.t_keys = BuildTree(image, rng, "t", spec.t_depth);
  }
  return w;
}

namespace {

std::vector<std::string> Strings(const std::vector<int32_t>& v) {
  std::vector<std::string> out;
  out.reserve(v.size());
  for (int32_t x : v) {
    out.push_back(std::to_string(x));
  }
  return out;
}

// `name[lo..hi]` (or `name[lo..hi] >? c` when `filter`) over `data`.
Expect Cells(const std::string& name, const std::vector<int32_t>& data, size_t lo, size_t hi,
             bool filter, int32_t c) {
  Expect e;
  for (size_t i = lo; i <= hi; ++i) {
    if (!filter || data[i] > c) {
      e.values.push_back(std::to_string(data[i]));
      e.syms.push_back(name + "[" + std::to_string(i) + "]");
    }
  }
  return e;
}

Expect Scalar(int64_t v) { return Expect{{std::to_string(v)}, {}}; }

int64_t CountAbove(const std::vector<int32_t>& v, size_t n, int32_t c) {
  int64_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    k += v[i] > c ? 1 : 0;
  }
  return k;
}

int64_t Sum(const std::vector<int32_t>& v, size_t lo, size_t hi) {
  int64_t s = 0;
  for (size_t i = lo; i <= hi; ++i) {
    s += v[i];
  }
  return s;
}

}  // namespace

std::vector<Query> PaperQueries(const World& w) {
  std::vector<Query> qs;
  qs.push_back({"x[.." + std::to_string(w.x.size()) + "] >? 0",
                Cells("x", w.x, 0, w.x.size() - 1, true, 0), w.x.size()});
  qs.push_back({"root-->(left,right)->key", Expect{Strings(w.root_keys), {}},
                w.root_keys.size()});
  qs.push_back({"L-->next->value", Expect{Strings(w.list), {}}, w.list.size()});
  Expect names;
  for (const auto& [bucket, name] : w.hash_hits) {
    names.values.push_back('"' + name + '"');
    names.syms.push_back("hash[" + std::to_string(bucket) + "]->name");
  }
  qs.push_back({"hash[..1024]->(if (_ && scope > 0) name)", names, 1024});
  return qs;
}

Query RecordScan(const World& w) {
  const size_t n = w.rec_keys.size();
  return {"#/(recs[.." + std::to_string(n) + "].key >? 0)", Scalar(CountAbove(w.rec_keys, n, 0)),
          n};
}

MixGen::MixGen(const World& world, uint64_t seed, int client, int clients)
    : world_(&world), rng_(seed), shared_(client < 0), w_(world.w) {
  if (shared_) {
    w_hi_ = w_.size();
  } else {
    size_t slice = w_.size() / static_cast<size_t>(clients);
    w_lo_ = slice * static_cast<size_t>(client);
    w_hi_ = w_lo_ + slice;
  }
}

Query MixGen::Next() {
  if (readback_ >= 0) {
    // Every serve write is read back by the same session right after it.
    size_t i = static_cast<size_t>(readback_);
    readback_ = -1;
    return {"w[" + std::to_string(i) + "]", Cells("w", w_, i, i, false, 0), 1};
  }
  uint64_t dice = rng_.Next() % 100;
  if (dice < 10) {
    return Write();
  }
  if (dice < 50) {
    return Watch();
  }
  return Read();
}

// Short reads with random indices and constants: nearly every text is new,
// so the plan cache misses and the front end runs.
Query MixGen::Read() {
  const std::vector<int32_t>& a = world_->a;
  const size_t na = a.size();
  size_t i = static_cast<size_t>(rng_.Range(0, static_cast<int64_t>(na) - 17));
  size_t j = i + static_cast<size_t>(rng_.Range(0, 15));
  int32_t c = static_cast<int32_t>(rng_.Range(-40, 40));
  const std::string si = std::to_string(i), sj = std::to_string(j), sc = std::to_string(c);
  switch (rng_.Next() % 8) {
    case 0:
      return {"a[" + si + "]", Cells("a", a, i, i, false, 0), 1};
    case 1:
      return {"a[" + si + ".." + sj + "]", Cells("a", a, i, j, false, 0), j - i + 1};
    case 2:
      return {"a[" + si + ".." + sj + "] >? " + sc, Cells("a", a, i, j, true, c), j - i + 1};
    case 3: {
      size_t n = static_cast<size_t>(rng_.Range(1, static_cast<int64_t>(na)));
      return {"#/(a[.." + std::to_string(n) + "] >? " + sc + ")", Scalar(CountAbove(a, n, c)),
              n};
    }
    case 4:
      return {"+/a[" + si + ".." + sj + "]", Scalar(Sum(a, i, j)), j - i + 1};
    case 5:
      return {"#/(S-->next->value >? " + sc + ")",
              Scalar(CountAbove(world_->s, world_->s.size(), c)), world_->s.size()};
    case 6:
      return {"#/(t-->(left,right)->key >? " + std::to_string(c * 2500 + 50000) + ")",
              Scalar(CountAbove(world_->t_keys, world_->t_keys.size(), c * 2500 + 50000)),
              world_->t_keys.size()};
    default: {
      int32_t d = static_cast<int32_t>(rng_.Range(2, 9));
      return {"(a[" + si + "] + " + sc + ") * " + std::to_string(d),
              Scalar((static_cast<int64_t>(a[i]) + c) * d), 1};
    }
  }
}

// The repeated watch set: a handful of fixed texts, so the plan cache hits.
Query MixGen::Watch() {
  const World& w = *world_;
  switch (rng_.Next() % (shared_ ? 8 : 6)) {
    case 0:
      return {"a[..16]", Cells("a", w.a, 0, 15, false, 0), 16};
    case 1:
      return {"#/(a[.." + std::to_string(w.a.size()) + "] >? 0)",
              Scalar(CountAbove(w.a, w.a.size(), 0)), w.a.size()};
    case 2:
      return {"S->value", Expect{{std::to_string(w.s.front())}, {"S->value"}}, 1};
    case 3:
      return {"t->key", Expect{{std::to_string(w.t_keys.front())}, {"t->key"}}, 1};
    case 4:
      return {"S-->next->value", Expect{Strings(w.s), {}}, w.s.size()};
    case 5:
      return {"t-->(left,right)->key", Expect{Strings(w.t_keys), {}}, w.t_keys.size()};
    case 6:
      return {"w[..16]", Cells("w", w_, 0, 15, false, 0), 16};
    default:
      return {"+/w[.." + std::to_string(w_.size()) + "]", Scalar(Sum(w_, 0, w_.size() - 1)),
              w_.size()};
  }
}

// Writes: assignments to w, plus target calls and declarations, which bump
// the mutation epoch and so invalidate the session's cached plans.
Query MixGen::Write() {
  uint64_t kind = rng_.Next() % 10;
  int32_t c = static_cast<int32_t>(rng_.Range(-50, 50));
  if (kind < 6) {
    size_t i = static_cast<size_t>(rng_.Range(static_cast<int64_t>(w_lo_),
                                              static_cast<int64_t>(w_hi_) - 1));
    w_[i] = c;
    if (!shared_) {
      readback_ = static_cast<long>(i);
    }
    return {"w[" + std::to_string(i) + "] = " + std::to_string(c), Scalar(c), 0, true};
  }
  if (kind < 8) {
    size_t i = static_cast<size_t>(rng_.Range(0, static_cast<int64_t>(world_->a.size()) - 1));
    int32_t v = world_->a[i];
    return {"abs(a[" + std::to_string(i) + "])", Scalar(v < 0 ? -v : v), 0, true};
  }
  int32_t d = static_cast<int32_t>(rng_.Range(2, 9));
  return {"int k; k = " + std::to_string(c) + "; k * " + std::to_string(d),
          Scalar(static_cast<int64_t>(c) * d), 0, true};
}

}  // namespace perfbench
