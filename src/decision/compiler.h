// Strategy → DecisionTable compilation.
//
// For every discrete key the compiler materialises the decision
// cascade Strategy::decide evaluates on the fly:
//
//   for each delta (round order):                 # rank = first hit
//     round 0                   → goal
//     per controllable out-edge → action  (region ∩ delta, edge order)
//     remainder of the delta    → delay   (candidate zones attached)
//   no delta                    → unwinnable
//
// and lowers the first-federation-wins cascade into an interval-test
// DAG: pick a difference constraint of the first still-live federation
// that properly splits the current path zone, recurse on both sides,
// and emit a leaf as soon as the first live federation covers the path
// zone.  Consecutive tests of the same clock difference fuse into one
// multi-arc node (bounds stay strictly sorted), and nodes, leaves,
// zones and delay slices are hash-consed into shared pools, so equal
// sub-decisions — frequent across ranks and keys — are stored once.
// A final mark-and-compact pass drops every node/leaf/zone the fusion
// left unreachable.
//
// The construction is exact (no sampling): on every concrete state
// with integral non-negative ticks, walking the DAG reproduces
// Strategy::decide bit for bit, because each path zone is partitioned
// by the very bounds the federations are made of and delay leaves
// carry the exact member zones whose earliest_entry_delay Strategy
// minimises.  Compilation is deterministic — same solution, same
// table, byte-stable .tgs files.
//
// ── parallel blocks ────────────────────────────────────────────────────
//
// compile() runs on as many threads as the solve did
// (SolverStats::threads).  The keys are cut into blocks of 256; a wave
// of blocks compiles in parallel, each block into a compiler of its
// own with its own intern tables, reading the solution through its
// lock-free accessors (a key's action regions are asked for only by
// that key's block).  The wave's blocks are then merged serially in
// key order: each block's zones, edge slots, zone slices, acts, leaves
// and nodes are interned again into the global tables, table by table
// in the order the block created them, and its keys are appended.  An
// entry the block created came from an intern call the serial compile
// makes too, and an entry new to the global tables is new to the
// block's, so the merge appends exactly the entries, in exactly the
// order, that compiling the keys one by one into the global tables
// would: after the last merge the tables equal the serial ones entry
// for entry, and the final compaction, which renumbers in DFS order
// from the key roots, writes the same .tgs bytes at every thread
// count.  At one thread the same blocks run one after another.
#pragma once

#include "decision/table.h"
#include "game/solver.h"
#include "game/strategy.h"

namespace tigat::decision {

struct CompileStats {
  std::size_t cascade_entries = 0;  // federation rows before lowering
  std::size_t nodes_built = 0;      // before hash-consing hits
  double compile_seconds = 0.0;
  double merge_seconds = 0.0;  // of which the serial block merges
};

// Compiles the solved game into a self-contained decision table.
[[nodiscard]] DecisionTable compile(const game::GameSolution& solution,
                                    CompileStats* stats = nullptr);

[[nodiscard]] inline DecisionTable compile(const game::Strategy& strategy,
                                           CompileStats* stats = nullptr) {
  return compile(strategy.solution(), stats);
}

}  // namespace tigat::decision
