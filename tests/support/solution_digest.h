// Golden digests of solved games, shared by the suites that pin them
// (solver_digest_test.cpp) and the ones that check a solve path against
// those pins (game_shared_graph_test.cpp).
//
// Both digests are FNV-1a 64:
//   * solution_digest covers, per key in key order, the key's location
//     vector and data valuation, the raw DBM cells of every member zone
//     of its reach federation (member order included), and every
//     winning delta's round and raw member zones, plus the fixpoint's
//     round count;
//   * table_digest covers the bytes of the compiled .tgs image.
#pragma once

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>

#include "decision/compiler.h"
#include "game/solver.h"
#include "lang/lang.h"

#ifndef TIGAT_MODEL_DIR
#error "TIGAT_MODEL_DIR must point at examples/models"
#endif

namespace tigat::test_support {

class Fnv1a {
 public:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }
  void u32(std::uint32_t v) {
    for (int s = 0; s < 32; s += 8) byte(static_cast<std::uint8_t>(v >> s));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void zones(const dbm::Fed& fed) {
    u32(static_cast<std::uint32_t>(fed.size()));
    for (const dbm::Dbm& z : fed.zones()) {
      for (std::uint32_t i = 0; i < z.dimension(); ++i) {
        for (std::uint32_t j = 0; j < z.dimension(); ++j) i32(z.at(i, j));
      }
    }
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

inline std::string solution_digest(const game::GameSolution& s) {
  const semantics::SymbolicGraph& g = s.graph();
  Fnv1a h;
  h.u32(static_cast<std::uint32_t>(s.stats().rounds));
  h.u32(g.key_count());
  dbm::Fed scratch(g.system().clock_count());
  for (std::uint32_t k = 0; k < g.key_count(); ++k) {
    const semantics::DiscreteKey& key = g.key(k);
    h.u32(static_cast<std::uint32_t>(key.locs.size()));
    for (const tsystem::LocId l : key.locs) h.u32(l);
    h.u32(static_cast<std::uint32_t>(key.data.slot_count()));
    for (const std::int32_t v : key.data.values()) h.i32(v);
    h.zones(g.reach(k, scratch));
    const auto& deltas = s.deltas(k);
    h.u32(static_cast<std::uint32_t>(deltas.size()));
    for (const game::GameSolution::Delta& d : deltas) {
      h.u32(d.round);
      h.zones(d.gained);
    }
  }
  return h.hex();
}

inline std::string table_digest(const game::GameSolution& s) {
  const decision::DecisionTable table = decision::compile(s);
  Fnv1a h;
  for (const std::uint8_t b : table.bytes()) h.byte(b);
  return h.hex();
}

struct Pin {
  const char* model;    // file under examples/models
  std::int64_t n;       // --param N (0: the file's default)
  const char* purpose;  // purpose source
  const char* solution;
  const char* table;
};

inline void PrintTo(const Pin& pin, std::ostream* os) {
  *os << pin.model << " N=" << pin.n << " " << pin.purpose;
}

// The purposes of Table 1 on LEP.
inline constexpr const char* kLepTp1 =
    "control: A<> (IUT.betterInfo == 1) and IUT.forward";
inline constexpr const char* kLepTp2 =
    "control: A<> forall (i : inUse) inUse[i] == 1";
inline constexpr const char* kLepTp3 =
    "control: A<> (forall (i : inUse) inUse[i] == 1) and IUT.idle";

// The pinned digests, each the same at 1, 2 and 8 solver threads.
inline constexpr Pin kPins[] = {
    Pin{"smart_light.tg", 0, "control: A<> IUT.Bright",
        "7f6d20c85e1d0e38", "a08aceabe3806690"},
    Pin{"smart_light.tg", 0, "control: A<> IUT.Dim",
        "04d1ac6c9228aee4", "54eaa7981c5489fc"},
    Pin{"smart_light.tg", 0, "control: A[] !IUT.Bright",
        "edd81b51e10f6e95", "2532e6ff073f0cfe"},
    Pin{"smart_light_safety.tg", 0, "control: A[] IUT.On",
        "4f62d1a56d53704b", "76a604c4cb0d97d6"},
    Pin{"lep.tg", 3, kLepTp1,
        "ef7564a6832b5ced", "49c82c2084838d0b"},
    Pin{"lep.tg", 3, kLepTp2,
        "fd69f6b540dceae8", "eeb7b8ac43b332f7"},
    Pin{"lep.tg", 3, kLepTp3,
        "d5994c3bf5e3a7cc", "507f8c2ea13d4449"},
    Pin{"lep.tg", 4, kLepTp1,
        "8310a1b748a676db", "a68a49587483496a"},
    Pin{"lep.tg", 4, kLepTp2,
        "c41c26cad7e266ea", "a11f68b554ed405c"},
    Pin{"lep.tg", 4, kLepTp3,
        "92b4f115cfbb70c5", "f472a316c990ee8c"},
};

// Loads a shipped model, with `N` overridden unless n is 0.
inline lang::LoadedModel load_pinned_model(const char* file, std::int64_t n) {
  lang::CompileOptions options;
  if (n != 0) options.params = {{"N", n}};
  return lang::load_model(std::string(TIGAT_MODEL_DIR) + "/" + file, options);
}

}  // namespace tigat::test_support
