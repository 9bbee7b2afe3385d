// The timed game solver — our re-implementation of the UPPAAL-TIGA
// core the paper builds on (Sec. 3.2; algorithm of Cassez, David,
// Fleury, Larsen, Lime, CONCUR 2005).  Reachability purposes
// (`control: A<> φ`) and safety purposes (`control: A[] φ`) share one
// attractor fixpoint; see the safety section below.
//
// Given a TIOGA network S and a test purpose `control: A<> φ`, the
// solver computes, per discrete state q of the forward-explored zone
// graph, the federation of clock valuations from which the controller
// (tester) can force φ whatever the uncontrollable (SUT) moves do.
// The fixpoint runs in synchronous rounds:
//
//   Win₀[q]   = Reach[q]                   if φ(q) else ∅
//   Winₖ₊₁[q] = Winₖ[q] ∪ ( pred_t(Bₖ[q], Gₖ[q]) ∩ Reach[q] )
//     Bₖ[q] = ( Winₖ[q] ∪ ⋃_{q →c q'} pred_e(Winₖ[q']) ) ∩ Reach[q]
//     Gₖ[q] =   ⋃_{q →u q'} pred_e(Reach[q'] \ Winₖ[q'])  ∩ Reach[q]
//
// pred_t is the safe-timed-predecessor of dbm::Fed (closed avoidance:
// simultaneous opponent moves win, the right semantics for black-box
// testing); pred_e pins resets and applies guards.  In time-frozen
// states (urgent/committed) pred_t degenerates to B \ G.
//
// B additionally contains the FORCED set: states on the (weak) upper
// boundary of the invariant where at least one uncontrollable edge is
// enabled.  There time cannot advance and — by the maximal-run
// semantics of Def. 7/8 (a blocked non-goal run only counts as maximal
// when no action is available) — the SUT must move; if no move escapes
// (the state is outside G), every outcome is winning.  This is what
// makes "wait for the forced output" strategies work, e.g. Smart Light
// L6 where the only path to Bright is the uncontrollable bright!
// bounded by Tp ≤ 2.  Deadlines induced by strict upper bounds are
// not attained and therefore never force a move (conservative).
//
// The round at which a state enters Win is its RANK.  Ranks are the
// progress measure that makes extracted strategies winning: a
// controllable action prescribed at rank r lands at rank < r, an
// uncontrollable move from a rank-r winning state lands at rank < r
// (it was avoided as an escape at r−1), and the delay prescribed by
// pred_t reaches B — rank < r territory — in bounded time.  Induction
// over ranks is exactly the paper's Def. 8 winning-strategy argument.
//
// Intersecting B with Reach[q] is not an optimisation but soundness:
// pred_t's endpoint must be a state the play can actually be in
// (delay-closed reach zones make Reach[q] ⊇ every delay successor that
// respects the invariant).  G ∩ Reach[q] is exact for the same reason.
//
// ── safety games (`control: A[] φ`) ────────────────────────────────────
//
// The tester wins a safety game by keeping φ true forever.  By
// determinacy this is the complement of a reachability game played by
// the ENVIRONMENT: compute the environment's attractor Attr to the
// ¬φ states — the very fixpoint above with the player roles swapped
// (the SUT's uncontrollable edges feed B, the tester's controllable
// edges feed G, and the FORCED set asks for an enabled CONTROLLABLE
// edge at an invariant deadline: there the TESTER must move, and if
// every tester move lands in Attr the environment wins) — and take
//
//   Safe[q] = Reach[q] \ Attr[q].
//
// One attractor loop thus serves both purpose kinds; the Jacobi round
// structure, serial in-key-order merges and pooled gain staging are
// shared verbatim, so safety solutions inherit the bit-identical-at-
// any-thread-count guarantee.  The published solution holds Safe as a
// single round-0 delta per key (a greatest fixpoint has no rank
// structure to exploit: the strategy is "stay inside Safe", not
// "descend a progress measure"), `goal_key(q)` reports whether φ
// holds at q, and `action_region(ei, 0)` is the region where taking
// edge ei keeps the play inside Safe — which is exactly what
// Strategy::decide and decision::compile consume.
//
// ── zone storage ───────────────────────────────────────────────────────
//
// Every bulk zone store — the graph's reach sets, the fixpoint's loss
// cache and the solution's winning deltas — is dictionary-compressed
// (dbm/zone_pool.h): a zone costs dim row ids into a hash-consed row
// dictionary instead of an inline matrix, which is what makes LEP
// n = 6 solvable in CI-class memory.  The fixpoint decodes what a
// round reads into worker-local scratch federations and compresses its
// gains in serial, key-ordered merges, so the dictionary content is as
// deterministic as the solution.
//
// ── one explored graph per model ───────────────────────────────────────
//
// The zone graph depends only on the system and the exploration
// options, not on the purpose.  A solve takes it from
// SymbolicGraph::explored: the first solve of a finalized System
// explores it, and every later solve of the same System object under
// equal ExplorationOptions reuses it while some solution still holds
// it (Table 1's three LEP purposes explore once).  Once explored the
// graph is immutable and shared by reference; the fixpoint's loss and
// winning rows go into the solution's own fork of the graph's frozen
// row dictionary, so row ids, member order, strategies and .tgs bytes
// equal those of a solve that explored alone.
//
// The accessors (winning, deltas, winning_up_to, rank, action_region,
// danger_region) decode or derive a key's federations on first touch
// into a per-key cache whose entries are filled once and then read with
// atomic loads, no lock.  Test execution visits a handful of keys per
// run, so serving stays cheap while bulk storage stays compressed.
// Consumers that touch EVERY key (Strategy::to_string,
// decision::compile) still fill every key's cache: the solution then
// holds decoded winning sets and action regions for the whole graph
// until it is destroyed, so extract strategies at the sizes whose
// decoded winning sets fit in memory; the solve and its verdict
// (winning_from_initial) need no decoding.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "dbm/federation.h"
#include "dbm/zone_pool.h"
#include "semantics/symbolic.h"
#include "tsystem/property.h"

namespace tigat::game {

struct SolverOptions {
  semantics::ExplorationOptions exploration;
  std::size_t max_rounds = 1u << 20;
  // Worker threads for exploration and the fixpoint (the calling
  // thread included): 0 = hardware concurrency, 1 = serial.  Winning
  // federations, ranks, key numbering and strategies are bit-identical
  // at every value — work is distributed, results are merged in key
  // order (see solve()).
  unsigned threads = 0;
};

struct SolverStats {
  std::size_t keys = 0;
  std::size_t reach_zones = 0;
  std::size_t winning_zones = 0;
  std::size_t edges = 0;
  std::size_t rounds = 0;
  // Worker threads the solve ran on (SolverOptions::threads resolved:
  // 0 becomes the hardware concurrency), the calling thread included.
  // decision::compile runs on as many.
  unsigned threads = 1;
  // High-water mark of the zone-memory meter during this solve, from
  // the bytes already live when it began.  A solve that reuses a
  // shared graph counts that graph once, as part of those live bytes.
  // The meter sees worker threads' zone bytes only when they flush
  // (util/memory_meter.h), so a transient high inside a parallel job
  // may be missed by less than threads × util::kZoneMeterGranule.
  std::size_t peak_zone_bytes = 0;
  double solve_seconds = 0.0;
  // Exploration phase split: parallel wave expansion vs the serial
  // seal+merge remainder (the striped interner shrinks the latter).
  // Both are 0 when the solve reused a graph another solve explored.
  double explore_expand_seconds = 0.0;
  double explore_merge_seconds = 0.0;
  // The solution's row dictionary: the graph's rows plus the
  // fixpoint's.
  std::size_t zone_pool_rows = 0;
  std::size_t zone_pool_bytes = 0;
};

// The solved game: symbolic graph + ranked winning federations.
// Shared (immutably) by strategies and the test executor; the graph is
// shared with every other solution over the same model (see the file
// comment).
class GameSolution {
 public:
  struct Delta {
    std::uint32_t round;
    dbm::Fed gained;
  };

  GameSolution(std::shared_ptr<const semantics::SymbolicGraph> graph,
               tsystem::TestPurpose purpose);

  [[nodiscard]] const semantics::SymbolicGraph& graph() const {
    return *graph_;
  }
  // The graph as a reference of its own: holding it keeps later solves
  // of the same model from exploring again, without keeping this
  // solution's winning sets and caches alive.
  [[nodiscard]] const std::shared_ptr<const semantics::SymbolicGraph>&
  shared_graph() const {
    return graph_;
  }
  [[nodiscard]] const tsystem::TestPurpose& purpose() const { return purpose_; }

  [[nodiscard]] bool goal_key(std::uint32_t k) const { return goal_key_[k]; }

  // Full winning federation of a key (decoded on first touch, like
  // every accessor below; see the file comment).
  [[nodiscard]] const dbm::Fed& winning(std::uint32_t k) const;
  // Winning states of rank ≤ round.  Served from the cumulative
  // per-round cache built at solve time (the executor asks on every
  // decision; rebuilding the union federation per call dominated the
  // per-decision hot path).
  [[nodiscard]] const dbm::Fed& winning_up_to(std::uint32_t k,
                                              std::uint32_t round) const;
  [[nodiscard]] const std::vector<Delta>& deltas(std::uint32_t k) const;

  // Rank of a concrete valuation (ticks at `scale`), if winning.
  [[nodiscard]] std::optional<std::uint32_t> rank(
      std::uint32_t k, std::span<const std::int64_t> clocks,
      std::int64_t scale) const;

  // pred_e(Win_{≤ round}[dst]) ∩ Reach[src] for edge index `ei` — the
  // region where the strategy prescribes taking `ei` from rank
  // round+1 (safety: round 0 — the region where taking `ei` keeps the
  // play inside Safe).  Lazily computed, cached, safe for concurrent
  // callers; the single home of this computation, shared by
  // Strategy::decide and decision::compile so their results stay
  // bit-identical.  A caller that visits every out-edge of a key may
  // pass `reach_src` = the decoded reach set of the edge's source, so
  // the key is decoded once rather than once per edge and round.
  [[nodiscard]] const dbm::Fed& action_region(
      std::uint32_t ei, std::uint32_t round,
      const dbm::Fed* reach_src = nullptr) const;

  // Safety games only: the sub-region of Reach[k] where some enabled
  // uncontrollable edge exits Safe.  Inside Safe \ Danger delaying is
  // harmless; the strategy must act no later than the play enters
  // Danger (the closed-avoidance fixpoint guarantees a safe
  // controllable escape is available by then — ties go to the
  // tester).  Lazily computed, cached, safe for concurrent callers.
  [[nodiscard]] const dbm::Fed& danger_region(std::uint32_t k) const;

  [[nodiscard]] bool winning_from_initial() const;

  [[nodiscard]] const SolverStats& stats() const { return stats_; }

 private:
  friend class GameSolver;

  struct PooledDelta {
    std::uint32_t round;
    dbm::PooledFed gained;
  };
  // A key's executor-facing federations, decoded from the pooled
  // deltas on first access.
  struct MaterializedKey {
    // The whole winning set: the concatenation of the deltas, built
    // only when there are two or more (one delta is the whole set).
    [[nodiscard]] const dbm::Fed& win() const {
      return deltas.size() == 1 ? deltas.front().gained : concat;
    }
    dbm::Fed concat;
    std::vector<Delta> deltas;
    // up_to[i] = union of deltas[0..i].gained for every prefix but the
    // full one (that is win()), so winning_up_to is a lookup.
    std::vector<dbm::Fed> up_to;
  };
  struct ActionNode {
    std::uint32_t round;
    dbm::Fed region;
    const ActionNode* next;
  };
  // Everything the accessors derive for one key, built on first touch.
  // Each entry is installed at most once (a racing duplicate is
  // discarded) and then immutable, so a read is an atomic load, no
  // lock.
  struct KeyCache {
    explicit KeyCache(std::size_t out_degree) : actions(out_degree) {}
    ~KeyCache();
    std::atomic<const MaterializedKey*> decoded{nullptr};
    std::atomic<const dbm::Fed*> danger{nullptr};
    // Per out-edge (edges_out order): the action regions asked for so
    // far, one node per round.
    std::vector<std::atomic<const ActionNode*>> actions;
  };
  struct CacheSlot {
    std::atomic<KeyCache*> cache{nullptr};
    ~CacheSlot() { delete cache.load(std::memory_order_relaxed); }
  };

  // Decodes the concatenation of a key's deltas — its winning set —
  // into `out` (the solver's member order: gains are pairwise disjoint,
  // so appending reproduces it).
  static void decode_win(const std::vector<PooledDelta>& deltas,
                         const dbm::ZonePool& pool, dbm::Fed& out);
  [[nodiscard]] KeyCache& key_cache(std::uint32_t k) const;
  // Decodes key k's deltas on first call and returns them.
  [[nodiscard]] const MaterializedKey& materialized(std::uint32_t k) const;

  std::shared_ptr<const semantics::SymbolicGraph> graph_;
  // The fork of the graph's row dictionary that the fixpoint's loss and
  // winning rows go into; every decoder of deltas_ reads it.
  dbm::ZonePool pool_;
  tsystem::TestPurpose purpose_;
  std::vector<bool> goal_key_;
  // The winning store: a key's winning set is the concatenation of its
  // delta federations (gains are disjoint, so no filtering applies).
  std::vector<std::vector<PooledDelta>> deltas_;
  std::unique_ptr<CacheSlot[]> cache_;  // one per key
  dbm::Fed empty_fed_;  // returned for rounds before the first delta
  SolverStats stats_;
};

// Solves `control: A<> φ` (PurposeKind::kReach) and `control: A[] φ`
// (PurposeKind::kSafety) over a finalized system, dispatching on the
// purpose kind (see the file comment for the safety reduction).
// Throws semantics::ExplorationLimit if the exploration budget is
// exceeded.
class GameSolver {
 public:
  GameSolver(const tsystem::System& system, tsystem::TestPurpose purpose,
             SolverOptions options = {});

  [[nodiscard]] std::shared_ptr<const GameSolution> solve();

 private:
  const tsystem::System* sys_;
  tsystem::TestPurpose purpose_;
  SolverOptions options_;
};

}  // namespace tigat::game
