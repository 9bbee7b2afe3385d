#include "tsystem/system.h"

#include <algorithm>
#include <atomic>

#include "util/assert.h"
#include "util/text.h"

namespace tigat::tsystem {

// ── EdgeBuilder ───────────────────────────────────────────────────────

Edge& EdgeBuilder::edge() { return process_->edges_[edge_]; }

EdgeBuilder& EdgeBuilder::guard(ClockConstraint c) {
  edge().guard.push_back(c);
  return *this;
}

EdgeBuilder& EdgeBuilder::guard(std::initializer_list<ClockConstraint> cs) {
  for (const auto& c : cs) edge().guard.push_back(c);
  return *this;
}

EdgeBuilder& EdgeBuilder::provided(Expr data_guard) {
  Edge& e = edge();
  e.data_guard = e.data_guard.is_null()
                     ? std::move(data_guard)
                     : (e.data_guard && std::move(data_guard));
  return *this;
}

EdgeBuilder& EdgeBuilder::send(ChannelId chan) {
  Edge& e = edge();
  e.sync = SyncKind::kSend;
  e.channel = chan;
  return *this;
}

EdgeBuilder& EdgeBuilder::receive(ChannelId chan) {
  Edge& e = edge();
  e.sync = SyncKind::kReceive;
  e.channel = chan;
  return *this;
}

EdgeBuilder& EdgeBuilder::reset(Clock x, dbm::bound_t value) {
  edge().resets.push_back({x.id, value});
  return *this;
}

EdgeBuilder& EdgeBuilder::assign(VarId var, Expr rhs) {
  edge().assignments.push_back({var, Expr(), std::move(rhs)});
  return *this;
}

EdgeBuilder& EdgeBuilder::assign_elem(VarId var, Expr index, Expr rhs) {
  edge().assignments.push_back({var, std::move(index), std::move(rhs)});
  return *this;
}

EdgeBuilder& EdgeBuilder::controllable(bool value) {
  edge().controllable_override = value;
  return *this;
}

EdgeBuilder& EdgeBuilder::comment(std::string text) {
  edge().comment = std::move(text);
  return *this;
}

// ── Process ───────────────────────────────────────────────────────────

LocId Process::add_location(std::string name, LocationKind kind) {
  if (find_location(name)) {
    throw ModelError("duplicate location '" + name + "' in process " + name_);
  }
  Location loc;
  loc.name = std::move(name);
  loc.kind = kind;
  locations_.push_back(std::move(loc));
  return static_cast<LocId>(locations_.size() - 1);
}

void Process::set_invariant(LocId loc, ClockConstraint c) {
  locations_.at(loc).invariant.push_back(c);
}

void Process::set_invariant(LocId loc,
                            std::initializer_list<ClockConstraint> cs) {
  for (const auto& c : cs) set_invariant(loc, c);
}

void Process::set_initial(LocId loc) {
  if (loc >= locations_.size()) {
    throw ModelError("initial location out of range in process " + name_);
  }
  initial_ = loc;
}

EdgeBuilder Process::add_edge(LocId src, LocId dst) {
  if (src >= locations_.size() || dst >= locations_.size()) {
    throw ModelError("edge endpoints out of range in process " + name_);
  }
  Edge e;
  e.src = src;
  e.dst = dst;
  edges_.push_back(std::move(e));
  return EdgeBuilder(*this, edges_.size() - 1);
}

LocId Process::initial() const {
  if (initial_) return *initial_;
  if (locations_.empty()) {
    throw ModelError("process " + name_ + " has no locations");
  }
  return 0;  // convention: first location is initial unless overridden
}

std::optional<LocId> Process::find_location(const std::string& n) const {
  for (LocId i = 0; i < locations_.size(); ++i) {
    if (locations_[i].name == n) return i;
  }
  return std::nullopt;
}

// ── System ────────────────────────────────────────────────────────────

Clock System::add_clock(std::string name) {
  if (finalized_) throw ModelError("cannot add clocks after finalize()");
  if (find_clock(name)) throw ModelError("duplicate clock '" + name + "'");
  clock_names_.push_back(std::move(name));
  max_constants_.push_back(0);
  return Clock{static_cast<std::uint32_t>(clock_names_.size() - 1)};
}

ChannelId System::add_channel(std::string name, Controllability control) {
  if (finalized_) throw ModelError("cannot add channels after finalize()");
  if (find_channel(name)) throw ModelError("duplicate channel '" + name + "'");
  channels_.push_back({std::move(name), control});
  return ChannelId{static_cast<std::uint32_t>(channels_.size() - 1)};
}

Process& System::add_process(std::string name,
                             Controllability default_control) {
  if (finalized_) throw ModelError("cannot add processes after finalize()");
  if (find_process(name)) throw ModelError("duplicate process '" + name + "'");
  processes_.push_back(Process(std::move(name), default_control));
  return processes_.back();
}

std::optional<std::uint32_t> System::find_process(
    const std::string& name) const {
  for (std::uint32_t i = 0; i < processes_.size(); ++i) {
    if (processes_[i].name() == name) return i;
  }
  return std::nullopt;
}

std::optional<ChannelId> System::find_channel(const std::string& name) const {
  for (std::uint32_t i = 0; i < channels_.size(); ++i) {
    if (channels_[i].name == name) return ChannelId{i};
  }
  return std::nullopt;
}

std::optional<Clock> System::find_clock(const std::string& name) const {
  for (std::uint32_t i = 1; i < clock_names_.size(); ++i) {
    if (clock_names_[i] == name) return Clock{i};
  }
  return std::nullopt;
}

bool System::edge_controllable(const Process& p, const Edge& e) const {
  if (e.controllable_override) return *e.controllable_override;
  if (e.sync != SyncKind::kNone) {
    return channels_.at(e.channel.id).control == Controllability::kControllable;
  }
  return p.default_control() == Controllability::kControllable;
}

void System::validate_constraint(const ClockConstraint& c,
                                 const std::string& where) const {
  if (c.i >= clock_count() || c.j >= clock_count() || c.i == c.j) {
    throw ModelError("bad clock constraint in " + where);
  }
  if (!dbm::is_infinity(c.bound) &&
      std::abs(dbm::bound_value(c.bound)) >= dbm::kMaxBoundValue / 2) {
    throw ModelError("constraint constant too large in " + where);
  }
}

void System::bump_max_constant(const ClockConstraint& c) {
  if (dbm::is_infinity(c.bound)) return;
  const dbm::bound_t v = std::abs(dbm::bound_value(c.bound));
  if (c.i != 0) max_constants_[c.i] = std::max(max_constants_[c.i], v);
  if (c.j != 0) max_constants_[c.j] = std::max(max_constants_[c.j], v);
}

void System::finalize() {
  if (finalized_) return;
  if (processes_.empty()) throw ModelError("system has no processes");
  for (const Process& p : processes_) {
    if (p.locations().empty()) {
      throw ModelError("process " + p.name() + " has no locations");
    }
    (void)p.initial();
    for (const Location& loc : p.locations()) {
      for (const auto& c : loc.invariant) {
        validate_constraint(c, p.name() + "." + loc.name + " invariant");
        bump_max_constant(c);
      }
    }
    for (const Edge& e : p.edges()) {
      const std::string where =
          p.name() + ": " + p.locations()[e.src].name + " -> " +
          p.locations()[e.dst].name;
      if (e.sync != SyncKind::kNone && e.channel.id >= channels_.size()) {
        throw ModelError("unknown channel on edge " + where);
      }
      for (const auto& c : e.guard) {
        validate_constraint(c, "guard of " + where);
        bump_max_constant(c);
      }
      for (const auto& r : e.resets) {
        if (r.clock == 0 || r.clock >= clock_count()) {
          throw ModelError("reset of bad clock on edge " + where);
        }
        if (r.value < 0) throw ModelError("negative reset value on " + where);
        max_constants_[r.clock] = std::max(max_constants_[r.clock], r.value);
      }
    }
  }
  static std::atomic<std::uint64_t> next_serial{1};
  serial_.value = next_serial.fetch_add(1, std::memory_order_relaxed);
  finalized_ = true;
}

std::string System::to_string() const {
  std::string out = "system " + name_ + "\n";
  out += util::format("  clocks:");
  for (std::uint32_t i = 1; i < clock_count(); ++i) {
    out += " " + clock_names_[i];
  }
  out += "\n";
  for (const ChannelDecl& c : channels_) {
    out += "  chan " + c.name +
           (c.control == Controllability::kControllable ? " (input)"
                                                        : " (output)") +
           "\n";
  }
  for (const Process& p : processes_) {
    out += "  process " + p.name() + ":\n";
    for (LocId l = 0; l < p.locations().size(); ++l) {
      const Location& loc = p.locations()[l];
      out += "    loc " + loc.name;
      if (l == p.initial()) out += " (init)";
      if (loc.kind == LocationKind::kUrgent) out += " (urgent)";
      if (loc.kind == LocationKind::kCommitted) out += " (committed)";
      if (!loc.invariant.empty()) {
        out += " inv:";
        for (const auto& c : loc.invariant) {
          out += util::format(" %s-%s%s", clock_names_[c.i].c_str(),
                              clock_names_[c.j].c_str(),
                              dbm::bound_to_string(c.bound).c_str());
        }
      }
      out += "\n";
    }
    for (const Edge& e : p.edges()) {
      out += "    edge " + p.locations()[e.src].name + " -> " +
             p.locations()[e.dst].name;
      if (e.sync == SyncKind::kSend) out += " " + channels_[e.channel.id].name + "!";
      if (e.sync == SyncKind::kReceive) {
        out += " " + channels_[e.channel.id].name + "?";
      }
      for (const auto& c : e.guard) {
        out += util::format(" [%s-%s%s]", clock_names_[c.i].c_str(),
                            clock_names_[c.j].c_str(),
                            dbm::bound_to_string(c.bound).c_str());
      }
      if (!e.data_guard.is_null()) {
        out += " [" + e.data_guard.to_string(data_) + "]";
      }
      for (const auto& r : e.resets) {
        out += util::format(" {%s:=%d}", clock_names_[r.clock].c_str(), r.value);
      }
      out += edge_controllable(p, e) ? " [c]" : " [u]";
      if (!e.comment.empty()) out += "  // " + e.comment;
      out += "\n";
    }
  }
  return out;
}

}  // namespace tigat::tsystem
