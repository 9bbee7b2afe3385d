// Timing decorators over the two executor-facing interfaces, so the
// traced run can split campaign time between the decision layer, the
// implementation under test and the executor itself without touching
// the program.  Used only in traced phases; untraced phases hand the
// bare table and IUT to campaign_run.
#pragma once

#include <atomic>
#include <cstdint>

#include "decision/source.h"
#include "testing/implementation.h"
#include "trace.h"

namespace perfbench {

// Spans every decide() as "decision.decide" and counts the calls.
class TimedSource final : public tigat::decision::DecisionSource {
 public:
  explicit TimedSource(const tigat::decision::DecisionSource& inner)
      : inner_(inner) {}

  [[nodiscard]] tigat::game::Move decide(
      const tigat::semantics::ConcreteState& state,
      std::int64_t scale) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    trace::Span span("decision.decide");
    return inner_.decide(state, scale);
  }
  [[nodiscard]] tigat::semantics::TransitionInstance edge_instance(
      std::uint32_t edge) const override {
    return inner_.edge_instance(edge);
  }
  [[nodiscard]] const char* backend_name() const override {
    return inner_.backend_name();
  }
  [[nodiscard]] std::uint64_t calls() const {
    return calls_.load(std::memory_order_relaxed);
  }

 private:
  const tigat::decision::DecisionSource& inner_;
  mutable std::atomic<std::uint64_t> calls_{0};
};

// Spans every boundary call into the simulated IUT as "testing.imp".
// Sits inside the campaign's fault injector, so injected faults are
// executor-side time, not IUT time.
class TimedImplementation final : public tigat::testing::Implementation {
 public:
  explicit TimedImplementation(tigat::testing::Implementation& inner)
      : inner_(inner) {}

  void reset() override {
    trace::Span span("testing.imp");
    inner_.reset();
  }
  std::optional<tigat::testing::ObservedOutput> advance(
      std::int64_t ticks) override {
    trace::Span span("testing.imp");
    return inner_.advance(ticks);
  }
  bool offer_input(const std::string& channel) override {
    trace::Span span("testing.imp");
    return inner_.offer_input(channel);
  }
  [[nodiscard]] std::uint64_t harness_faults() const override {
    return inner_.harness_faults();
  }
  [[nodiscard]] std::string harness_fault_summary() const override {
    return inner_.harness_fault_summary();
  }

 private:
  tigat::testing::Implementation& inner_;
};

}  // namespace perfbench
