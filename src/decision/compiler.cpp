#include "decision/compiler.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "util/assert.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace tigat::decision {

namespace {

using dbm::Dbm;
using dbm::Fed;
using game::GameSolution;
using game::MoveKind;
using semantics::SymbolicEdge;
using semantics::SymbolicGraph;

// One row of a key's decision cascade: "if the point is in `fed` (and
// in no earlier row), the prescription is `leaf`".
struct Entry {
  const Fed* fed = nullptr;
  target_t leaf = 0;
};

// Interns one block of keys into tables of its own (see compiler.h);
// the global Compiler merges the blocks in key order and compacts.
class Compiler {
 public:
  explicit Compiler(const GameSolution& solution)
      : sol_(solution),
        g_(solution.graph()),
        safety_(solution.purpose().kind == tsystem::PurposeKind::kSafety),
        reach_(g_.system().clock_count()) {
    out_.clock_dim = g_.system().clock_count();
  }

  void compile_keys(std::uint32_t begin, std::uint32_t end) {
    for (std::uint32_t k = begin; k < end; ++k) compile_key(k);
  }

  // Interns everything `block` interned into this compiler's tables,
  // table by table in the order the block created the entries, and
  // appends its keys.  Every entry the block created was created by an
  // intern call that a serial compile makes too, and an entry new to
  // these tables is new to the block's, so this appends exactly what
  // the serial compile appends for those keys, in its order: after the
  // merge the tables equal the serial ones entry for entry.  Fields
  // the block left at their defaults (an action leaf's zone slice, a
  // reachability leaf's danger slice and acts) stay defaults, since
  // re-interning them would add entries the serial compile never made.
  void merge(Compiler&& block) {
    TableData& in = block.out_;
    std::vector<std::uint32_t> zone_of;
    zone_of.reserve(in.zones.size());
    for (const Dbm& z : in.zones) zone_of.push_back(intern_zone(z));
    std::vector<std::uint32_t> edge_of;
    edge_of.reserve(in.edges.size());
    for (const TableData::EdgeSlot& e : in.edges) {
      edge_of.push_back(edge_slot(e.original));
    }
    std::map<Slice, Slice> slice_of;
    std::vector<std::uint32_t> refs;
    for (const Slice& slice : block.slices_) {
      refs.clear();
      for (std::uint32_t r = 0; r < slice.second; ++r) {
        refs.push_back(zone_of[in.zone_refs[slice.first + r]]);
      }
      slice_of.emplace(slice, intern_slice(refs));
    }
    const auto remap_slice = [&](std::uint32_t& first, std::uint32_t& count) {
      std::tie(first, count) = slice_of.at({first, count});
    };
    std::map<Slice, Slice> acts_of;
    std::vector<TableData::Act> acts;
    for (const Slice& slice : block.act_slices_) {
      acts.assign(in.acts.begin() + slice.first,
                  in.acts.begin() + slice.first + slice.second);
      for (TableData::Act& act : acts) {
        act.edge_slot = edge_of[act.edge_slot];
        remap_slice(act.zones_first, act.zones_count);
      }
      acts_of.emplace(slice, intern_acts(acts));
    }
    std::vector<target_t> leaf_of;
    leaf_of.reserve(in.leaves.size());
    for (TableData::Leaf leaf : in.leaves) {
      if (leaf.kind == MoveKind::kAction) {
        leaf.edge_slot = edge_of[leaf.edge_slot];
      }
      if (leaf.kind == MoveKind::kDelay) {
        remap_slice(leaf.zones_first, leaf.zones_count);
        if (safety_) {
          remap_slice(leaf.danger_first, leaf.danger_count);
          std::tie(leaf.acts_first, leaf.acts_count) =
              acts_of.at({leaf.acts_first, leaf.acts_count});
        }
      }
      leaf_of.push_back(intern_leaf(leaf));
    }
    // A node's targets are created before the node, so they are mapped
    // by the time it is.
    std::vector<target_t> node_of;
    node_of.reserve(in.nodes.size());
    const auto remap_target = [&](target_t t) {
      return is_leaf(t) ? leaf_of[target_index(t)] : node_of[target_index(t)];
    };
    std::vector<TableData::Arc> arcs;
    for (const TableData::Node& node : in.nodes) {
      arcs.assign(in.arcs.begin() + node.first_arc,
                  in.arcs.begin() + node.first_arc + node.arc_count);
      for (TableData::Arc& arc : arcs) arc.target = remap_target(arc.target);
      node_of.push_back(intern_node(node.i, node.j, arcs));
    }
    for (TableData::Key& key : in.keys) {
      key.root = remap_target(key.root);
      out_.keys.push_back(std::move(key));
    }
    cascade_entries_ += block.cascade_entries_;
    nodes_built_ += block.nodes_built_;
  }

  // Fills the header and compacts; the compiler is spent afterwards.
  TableData finish(CompileStats* stats) {
    out_.fingerprint = model_fingerprint(g_.system(), sol_.purpose());
    out_.purpose_kind = safety_ ? 1 : 0;
    out_.system_name = g_.system().name();
    out_.purpose_source = sol_.purpose().source;
    compact();
    if (stats != nullptr) {
      stats->cascade_entries = cascade_entries_;
      stats->nodes_built = nodes_built_;
    }
    return std::move(out_);
  }

 private:
  using Slice = std::pair<std::uint32_t, std::uint32_t>;  // first, count

  // ── interning ───────────────────────────────────────────────────────
  std::uint32_t intern_zone(const Dbm& zone) {
    auto& ids = zone_index_[zone.hash()];
    for (const std::uint32_t id : ids) {
      if (out_.zones[id] == zone) return id;
    }
    const auto id = static_cast<std::uint32_t>(out_.zones.size());
    out_.zones.push_back(zone);
    ids.push_back(id);
    return id;
  }

  Slice intern_slice(const std::vector<std::uint32_t>& refs) {
    const auto it = slice_index_.find(refs);
    if (it != slice_index_.end()) return it->second;
    const auto first = static_cast<std::uint32_t>(out_.zone_refs.size());
    out_.zone_refs.insert(out_.zone_refs.end(), refs.begin(), refs.end());
    const Slice slice(first, static_cast<std::uint32_t>(refs.size()));
    slice_index_.emplace(refs, slice);
    slices_.push_back(slice);
    return slice;
  }

  target_t intern_leaf(const TableData::Leaf& leaf) {
    const auto key = std::make_tuple(leaf.kind, leaf.rank, leaf.edge_slot,
                                     leaf.zones_first, leaf.zones_count,
                                     leaf.acts_first, leaf.acts_count,
                                     leaf.danger_first, leaf.danger_count);
    const auto it = leaf_index_.find(key);
    if (it != leaf_index_.end()) return leaf_target(it->second);
    const auto id = static_cast<std::uint32_t>(out_.leaves.size());
    out_.leaves.push_back(leaf);
    leaf_index_.emplace(key, id);
    return leaf_target(id);
  }

  Slice intern_acts(const std::vector<TableData::Act>& acts) {
    std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> key;
    key.reserve(acts.size());
    for (const TableData::Act& a : acts) {
      key.emplace_back(a.edge_slot, a.zones_first, a.zones_count);
    }
    const auto it = acts_index_.find(key);
    if (it != acts_index_.end()) return it->second;
    const auto first = static_cast<std::uint32_t>(out_.acts.size());
    out_.acts.insert(out_.acts.end(), acts.begin(), acts.end());
    const Slice slice(first, static_cast<std::uint32_t>(acts.size()));
    acts_index_.emplace(std::move(key), slice);
    act_slices_.push_back(slice);
    return slice;
  }

  target_t intern_node(std::uint16_t i, std::uint16_t j,
                       const std::vector<TableData::Arc>& arcs) {
    std::vector<std::pair<dbm::raw_t, target_t>> sig;
    sig.reserve(arcs.size());
    for (const TableData::Arc& a : arcs) sig.emplace_back(a.bound, a.target);
    const auto key = std::make_tuple(i, j, std::move(sig));
    const auto it = node_index_.find(key);
    if (it != node_index_.end()) return node_target(it->second);
    const auto id = static_cast<std::uint32_t>(out_.nodes.size());
    TableData::Node node;
    node.i = i;
    node.j = j;
    node.first_arc = static_cast<std::uint32_t>(out_.arcs.size());
    node.arc_count = static_cast<std::uint32_t>(arcs.size());
    out_.arcs.insert(out_.arcs.end(), arcs.begin(), arcs.end());
    out_.nodes.push_back(node);
    node_index_.emplace(key, id);
    return node_target(id);
  }

  std::uint32_t edge_slot(std::uint32_t ei) {
    const auto it = edge_slots_.find(ei);
    if (it != edge_slots_.end()) return it->second;
    const auto slot = static_cast<std::uint32_t>(out_.edges.size());
    out_.edges.push_back({ei, g_.edges()[ei].inst});
    edge_slots_.emplace(ei, slot);
    return slot;
  }

  // ── the per-key cascade ─────────────────────────────────────────────
  // Action regions come from GameSolution::action_region — the single
  // cached implementation Strategy::decide also walks, including the
  // member-zone layout (delay leaves take the earliest-entry minimum
  // over these zones, so the zone list itself must match, not just the
  // denoted set).  `reach` is key k's decoded reach set, decoded once
  // per key and handed to every action_region call of its out-edges.
  target_t delay_leaf(std::uint32_t k, std::uint32_t round, const Fed& reach) {
    std::vector<std::uint32_t> refs;
    for (const std::uint32_t ei : g_.edges_out(k)) {
      if (!g_.edges()[ei].inst.controllable) continue;
      for (const Dbm& z : sol_.action_region(ei, round - 1, &reach).zones()) {
        refs.push_back(intern_zone(z));
      }
    }
    for (const Dbm& z : sol_.winning_up_to(k, round - 1).zones()) {
      refs.push_back(intern_zone(z));
    }
    TableData::Leaf leaf;
    leaf.kind = MoveKind::kDelay;
    leaf.rank = round;
    std::tie(leaf.zones_first, leaf.zones_count) = intern_slice(refs);
    return intern_leaf(leaf);
  }

  // Safety keys compile to a single fat delay leaf over Safe (see
  // table.h): the dense stay bound comes from the Safe zones, the
  // danger region forces the boundary action, and the acts are the
  // controllable edges in edges_out order — empty action regions are
  // skipped, which is decide-equivalent since an empty region never
  // contains the point.
  target_t safety_leaf(std::uint32_t k, const Fed& reach) {
    TableData::Leaf leaf;
    leaf.kind = MoveKind::kDelay;
    leaf.rank = 0;
    std::vector<std::uint32_t> refs;
    for (const Dbm& z : sol_.winning(k).zones()) {
      refs.push_back(intern_zone(z));
    }
    std::tie(leaf.zones_first, leaf.zones_count) = intern_slice(refs);
    refs.clear();
    for (const Dbm& z : sol_.danger_region(k).zones()) {
      refs.push_back(intern_zone(z));
    }
    std::tie(leaf.danger_first, leaf.danger_count) = intern_slice(refs);
    std::vector<TableData::Act> acts;
    for (const std::uint32_t ei : g_.edges_out(k)) {
      if (!g_.edges()[ei].inst.controllable) continue;
      const Fed& region = sol_.action_region(ei, 0, &reach);
      if (region.is_empty()) continue;
      TableData::Act act;
      act.edge_slot = edge_slot(ei);
      std::vector<std::uint32_t> arefs;
      for (const Dbm& z : region.zones()) arefs.push_back(intern_zone(z));
      std::tie(act.zones_first, act.zones_count) = intern_slice(arefs);
      acts.push_back(act);
    }
    std::tie(leaf.acts_first, leaf.acts_count) = intern_acts(acts);
    return intern_leaf(leaf);
  }

  void compile_key(std::uint32_t k) {
    const Fed& reach = g_.reach(k, reach_);
    if (safety_) {
      const Fed& safe = sol_.winning(k);
      TableData::Key key;
      key.locs = g_.key(k).locs;
      key.data = g_.key(k).data;
      if (safe.is_empty()) {
        key.root = unwinnable_leaf();
      } else {
        std::vector<Entry> entries{{&safe, safety_leaf(k, reach)}};
        cascade_entries_ += entries.size();
        key.root = build(Dbm::universal(out_.clock_dim), entries);
      }
      out_.keys.push_back(std::move(key));
      return;
    }
    std::deque<Fed> owned;
    std::vector<Entry> entries;
    for (const GameSolution::Delta& d : sol_.deltas(k)) {
      if (d.round == 0) {
        TableData::Leaf goal;
        goal.kind = MoveKind::kGoalReached;
        goal.rank = 0;
        entries.push_back({&d.gained, intern_leaf(goal)});
        continue;
      }
      for (const std::uint32_t ei : g_.edges_out(k)) {
        if (!g_.edges()[ei].inst.controllable) continue;
        Fed region = sol_.action_region(ei, d.round - 1, &reach)
                         .intersection(d.gained);
        if (region.is_empty()) continue;
        TableData::Leaf act;
        act.kind = MoveKind::kAction;
        act.rank = d.round;
        act.edge_slot = edge_slot(ei);
        owned.push_back(std::move(region));
        entries.push_back({&owned.back(), intern_leaf(act)});
      }
      entries.push_back({&d.gained, delay_leaf(k, d.round, reach)});
    }
    cascade_entries_ += entries.size();

    TableData::Key key;
    key.locs = g_.key(k).locs;
    key.data = g_.key(k).data;
    key.root = entries.empty() ? unwinnable_leaf()
                               : build(Dbm::universal(out_.clock_dim), entries);
    out_.keys.push_back(std::move(key));
  }

  target_t unwinnable_leaf() { return intern_leaf(TableData::Leaf{}); }

  // ── cascade → DAG lowering ──────────────────────────────────────────
  // `P` is the convex path zone implied by the tests taken so far (the
  // DAG's "cell"); entries whose federations miss P are dead here.
  target_t build(const Dbm& P, const std::vector<Entry>& entries) {
    for (const Entry& entry : entries) {
      const Dbm* live_zone = nullptr;
      for (const Dbm& z : entry.fed->zones()) {
        if (z.intersects(P)) {
          live_zone = &z;
          break;
        }
      }
      if (live_zone == nullptr) continue;  // dead row: cannot fire in P

      // First live row.  If it covers P the whole cell is decided (no
      // earlier row can fire anywhere in P).
      if (Fed(P).is_subset_of(*entry.fed)) return entry.leaf;

      // Otherwise split P on a bound of a live member zone.  Some zone
      // must have one: a live zone without a P-tightening bound would
      // contain P, contradicting the failed cover test.
      for (const Dbm& z : entry.fed->zones()) {
        if (!z.intersects(P)) continue;
        for (std::uint32_t i = 0; i < P.dimension(); ++i) {
          for (std::uint32_t j = 0; j < P.dimension(); ++j) {
            if (i == j || z.at(i, j) >= P.at(i, j)) continue;
            return split(P, entries, static_cast<std::uint16_t>(i),
                         static_cast<std::uint16_t>(j), z.at(i, j));
          }
        }
      }
      util::assert_fail(__FILE__, __LINE__,
                        "uncovered cell without a splitting bound");
    }
    return unwinnable_leaf();  // no row can fire anywhere in P
  }

  target_t split(const Dbm& P, const std::vector<Entry>& entries,
                 std::uint16_t i, std::uint16_t j, dbm::raw_t bound) {
    Dbm yes = P;
    bool ok = yes.constrain(i, j, bound);
    TIGAT_ASSERT(ok, "splitter produced an empty yes-side");
    Dbm no = P;
    ok = no.constrain(j, i, dbm::negate_bound(bound));
    TIGAT_ASSERT(ok, "splitter produced an empty no-side");

    const target_t on_yes = build(yes, entries);
    const target_t on_no = build(no, entries);
    if (on_yes == on_no) return on_yes;  // the test does not discriminate
    ++nodes_built_;

    std::vector<TableData::Arc> arcs;
    arcs.push_back({bound, on_yes});
    // Fuse a same-difference chain into one multi-arc node.  On the
    // no-side every later cut on (i, j) is strictly looser (a tighter
    // one could not intersect the no-side cell), so sortedness holds;
    // the guard keeps it an invariant even for hash-consed reuse.
    if (!is_leaf(on_no)) {
      const TableData::Node& chain = out_.nodes[target_index(on_no)];
      if (chain.i == i && chain.j == j &&
          out_.arcs[chain.first_arc].bound > bound) {
        for (std::uint32_t a = 0; a < chain.arc_count; ++a) {
          arcs.push_back(out_.arcs[chain.first_arc + a]);
        }
        return intern_node(i, j, arcs);
      }
    }
    arcs.push_back({dbm::kInfinity, on_no});
    return intern_node(i, j, arcs);
  }

  // ── mark & compact ──────────────────────────────────────────────────
  // Chain fusion and leaf sharing strand intermediate nodes and (after
  // dedup) unreferenced pool entries; rebuild every array with only
  // what the key roots reach, renumbering in deterministic DFS order.
  void compact() {
    TableData packed;
    packed.fingerprint = out_.fingerprint;
    packed.clock_dim = out_.clock_dim;
    packed.purpose_kind = out_.purpose_kind;
    packed.system_name = std::move(out_.system_name);
    packed.purpose_source = std::move(out_.purpose_source);

    constexpr std::uint32_t kUnset = 0xffff'ffffu;
    std::vector<std::uint32_t> node_map(out_.nodes.size(), kUnset);
    std::vector<std::uint32_t> leaf_map(out_.leaves.size(), kUnset);
    std::vector<std::uint32_t> zone_map(out_.zones.size(), kUnset);
    std::vector<std::uint32_t> edge_map(out_.edges.size(), kUnset);
    std::map<std::pair<std::uint32_t, std::uint32_t>,
             std::pair<std::uint32_t, std::uint32_t>>
        slice_map;
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> acts_map;

    const auto map_zone = [&](std::uint32_t z) {
      if (zone_map[z] == kUnset) {
        zone_map[z] = static_cast<std::uint32_t>(packed.zones.size());
        packed.zones.push_back(out_.zones[z]);
      }
      return zone_map[z];
    };
    const auto map_edge = [&](std::uint32_t slot) {
      if (edge_map[slot] == kUnset) {
        edge_map[slot] = static_cast<std::uint32_t>(packed.edges.size());
        packed.edges.push_back(out_.edges[slot]);
      }
      return edge_map[slot];
    };
    const auto remap_slice = [&](std::uint32_t& first, std::uint32_t count) {
      const auto old = std::make_pair(first, count);
      const auto it = slice_map.find(old);
      if (it != slice_map.end()) {
        first = it->second.first;
        return;
      }
      const auto fresh = static_cast<std::uint32_t>(packed.zone_refs.size());
      for (std::uint32_t r = 0; r < count; ++r) {
        packed.zone_refs.push_back(map_zone(out_.zone_refs[old.first + r]));
      }
      slice_map.emplace(old, std::make_pair(fresh, count));
      first = fresh;
    };
    const auto map_leaf = [&](std::uint32_t l) {
      if (leaf_map[l] != kUnset) return leaf_map[l];
      TableData::Leaf leaf = out_.leaves[l];
      if (leaf.kind == MoveKind::kAction) {
        leaf.edge_slot = map_edge(leaf.edge_slot);
      }
      if (leaf.kind == MoveKind::kDelay) {
        remap_slice(leaf.zones_first, leaf.zones_count);
        remap_slice(leaf.danger_first, leaf.danger_count);
        if (leaf.acts_count != 0) {
          const auto old = std::make_pair(leaf.acts_first, leaf.acts_count);
          const auto it = acts_map.find(old);
          if (it != acts_map.end()) {
            leaf.acts_first = it->second;
          } else {
            const auto fresh = static_cast<std::uint32_t>(packed.acts.size());
            for (std::uint32_t a = 0; a < old.second; ++a) {
              TableData::Act act = out_.acts[old.first + a];
              act.edge_slot = map_edge(act.edge_slot);
              remap_slice(act.zones_first, act.zones_count);
              packed.acts.push_back(act);
            }
            acts_map.emplace(old, fresh);
            leaf.acts_first = fresh;
          }
        } else {
          leaf.acts_first = 0;
        }
      }
      leaf_map[l] = static_cast<std::uint32_t>(packed.leaves.size());
      packed.leaves.push_back(leaf);
      return leaf_map[l];
    };

    // Post-order DFS: a node's targets are numbered before the node
    // itself, and its rebuilt arcs land contiguously in `packed.arcs`.
    const std::function<target_t(target_t)> map_target =
        [&](target_t t) -> target_t {
      if (is_leaf(t)) return leaf_target(map_leaf(target_index(t)));
      const std::uint32_t n = target_index(t);
      if (node_map[n] != kUnset) return node_target(node_map[n]);
      const TableData::Node& node = out_.nodes[n];
      std::vector<TableData::Arc> arcs;
      arcs.reserve(node.arc_count);
      for (std::uint32_t a = 0; a < node.arc_count; ++a) {
        const TableData::Arc& arc = out_.arcs[node.first_arc + a];
        arcs.push_back({arc.bound, map_target(arc.target)});
      }
      TableData::Node fresh;
      fresh.i = node.i;
      fresh.j = node.j;
      fresh.first_arc = static_cast<std::uint32_t>(packed.arcs.size());
      fresh.arc_count = static_cast<std::uint32_t>(arcs.size());
      packed.arcs.insert(packed.arcs.end(), arcs.begin(), arcs.end());
      node_map[n] = static_cast<std::uint32_t>(packed.nodes.size());
      packed.nodes.push_back(fresh);
      return node_target(node_map[n]);
    };

    packed.keys.reserve(out_.keys.size());
    for (TableData::Key& key : out_.keys) {
      key.root = map_target(key.root);
      packed.keys.push_back(std::move(key));
    }
    out_ = std::move(packed);
  }

  const GameSolution& sol_;
  const SymbolicGraph& g_;
  const bool safety_;
  TableData out_;
  Fed reach_;  // compile_key's decode buffer for the key's reach set

  std::unordered_map<std::size_t, std::vector<std::uint32_t>> zone_index_;
  std::map<std::vector<std::uint32_t>, Slice> slice_index_;
  std::map<std::tuple<MoveKind, std::uint32_t, std::uint32_t, std::uint32_t,
                      std::uint32_t, std::uint32_t, std::uint32_t,
                      std::uint32_t, std::uint32_t>,
           std::uint32_t>
      leaf_index_;
  std::map<std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>>,
           Slice>
      acts_index_;
  std::map<std::tuple<std::uint16_t, std::uint16_t,
                      std::vector<std::pair<dbm::raw_t, target_t>>>,
           std::uint32_t>
      node_index_;
  std::unordered_map<std::uint32_t, std::uint32_t> edge_slots_;
  // Zone slices and act slices in the order they were created, for
  // merge().
  std::vector<Slice> slices_;
  std::vector<Slice> act_slices_;

  std::size_t cascade_entries_ = 0;
  std::size_t nodes_built_ = 0;
};

// Keys per block, and blocks per worker in one wave: enough blocks for
// the pool's chunk stealing to even out keys of very different cost,
// few enough that a wave's block tables stay small.
constexpr std::uint32_t kBlockKeys = 256;
constexpr std::size_t kBlocksPerWorker = 4;

}  // namespace

DecisionTable compile(const GameSolution& solution, CompileStats* stats) {
  TIGAT_SPAN("compile");
  const util::Stopwatch watch;
  util::ThreadPool pool(solution.stats().threads);
  Compiler global(solution);
  const std::uint32_t keys = solution.graph().key_count();
  const std::size_t blocks = (std::size_t{keys} + kBlockKeys - 1) / kBlockKeys;
  const std::size_t wave = pool.worker_count() * kBlocksPerWorker;
  std::vector<std::unique_ptr<Compiler>> compiled;
  double merge_seconds = 0.0;
  for (std::size_t first = 0; first < blocks; first += wave) {
    const std::size_t count = std::min(wave, blocks - first);
    compiled.resize(count);
    pool.parallel_for(
        count, 1,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t b = begin; b < end; ++b) {
            const std::size_t k = (first + b) * kBlockKeys;
            compiled[b] = std::make_unique<Compiler>(solution);
            compiled[b]->compile_keys(
                static_cast<std::uint32_t>(k),
                static_cast<std::uint32_t>(
                    std::min<std::size_t>(k + kBlockKeys, keys)));
          }
        },
        "compile.block");
    TIGAT_SPAN("compile.merge");
    const util::Stopwatch merge_watch;
    for (std::unique_ptr<Compiler>& block : compiled) {
      global.merge(std::move(*block));
      block.reset();
    }
    merge_seconds += merge_watch.seconds();
  }
  DecisionTable table(global.finish(stats));
  if (stats != nullptr) {
    stats->merge_seconds = merge_seconds;
    stats->compile_seconds = watch.seconds();
  }
  return table;
}

}  // namespace tigat::decision
