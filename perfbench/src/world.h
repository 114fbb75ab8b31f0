// Seeded debuggee images and the queries the benchmark sends to them.
//
// Everything here is derived from the --seed argument alone: the image data
// (arrays, a tree, a list, a symbol table with planted names) and the query
// texts. Each Query carries the answer the benchmark computed from the data
// it generated, so outputs are checked without trusting a DUEL run.

#ifndef PERFBENCH_WORLD_H_
#define PERFBENCH_WORLD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/duel/session.h"
#include "src/target/image.h"

namespace perfbench {

// splitmix64: a fixed, portable generator (std:: distributions are not
// specified bit-for-bit across standard libraries).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // Uniform in [lo, hi].
  int64_t Range(int64_t lo, int64_t hi);
  bool Chance(double p) { return static_cast<double>(Next() >> 11) * 0x1.0p-53 < p; }

 private:
  uint64_t state_;
};

// What a query must print: the formatted values in order and, where the
// symbolic text is predictable, the symbolic values too.
struct Expect {
  std::vector<std::string> values;
  std::vector<std::string> syms;  // empty = symbolic text not checked
};

struct Query {
  std::string text;
  Expect expect;
  uint64_t elements = 0;  // cells indexed / nodes walked / buckets scanned
  bool write = false;     // mutates the target or bumps its mutation epoch
};

// Returns "" when `r` printed exactly what `e` says, else a description of
// the first difference.
std::string Mismatch(const duel::QueryResult& r, const Expect& e);

// Sizes of the structures in one image (0 = absent).
struct WorldSpec {
  size_t x_len = 0;       // int x[x_len]
  size_t recs_len = 0;    // struct rec { int key; char pad[60]; } recs[recs_len]
  int tree_depth = 0;     // struct node *root, complete tree of this depth
  size_t list_len = 0;    // struct List *L
  bool symtab = false;    // struct symbol *hash[1024]
  size_t a_len = 0;       // int a[a_len]            (small data)
  size_t w_len = 0;       // int w[w_len]            (written cells)
  size_t s_len = 0;       // struct List *S           (small list)
  int t_depth = 0;        // struct node *t           (small tree)
};

// The image plus the generated data it was built from.
struct World {
  std::unique_ptr<duel::target::TargetImage> image;
  std::vector<int32_t> x, rec_keys, list, a, w, s;
  std::vector<int32_t> root_keys, t_keys;  // preorder (the --> DFS order)
  std::vector<std::pair<size_t, std::string>> hash_hits;  // buckets whose head has scope > 0
};

World BuildWorld(const WorldSpec& spec, uint64_t seed);

// The big-data paper queries over a WorldSpec with x/tree/list/symtab.
std::vector<Query> PaperQueries(const World& w);

// A field scan over `recs` (64-byte records): every block of the table is
// read, so a table larger than the block cache overflows it.
Query RecordScan(const World& w);

// The interactive / serve query stream over the small data: mostly distinct
// short reads, a repeated watch set, and about 10% writes.
class MixGen {
 public:
  // `client` < 0: the only session (reads any w cell; writes any cell).
  // `client` >= 0: one of `clients` serve sessions; it writes and reads
  // back only its own slice of w, so concurrent sessions never race.
  MixGen(const World& world, uint64_t seed, int client = -1, int clients = 1);
  Query Next();

 private:
  Query Read();
  Query Watch();
  Query Write();

  const World* world_;
  Rng rng_;
  bool shared_;
  size_t w_lo_ = 0, w_hi_ = 0;  // this generator's writable w cells
  std::vector<int32_t> w_;      // model of w as this session sees it
  long readback_ = -1;          // w cell to read back next
};

}  // namespace perfbench

#endif  // PERFBENCH_WORLD_H_
