#include "core/asti.h"

#include <chrono>

#include "util/check.h"

namespace asti {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

AdaptiveRunTrace RunAdaptivePolicy(AdaptiveWorld& world, RoundSelector& selector,
                                   Rng& rng, const CancelScope* cancel) {
  ASM_CHECK(!world.TargetReached()) << "world already reached its target";
  const auto run_start = std::chrono::steady_clock::now();

  AdaptiveRunTrace trace;
  trace.eta = world.eta();
  while (!world.TargetReached()) {
    if (Fired(cancel)) break;
    const auto round_start = std::chrono::steady_clock::now();
    RoundRecord record;
    record.round = trace.rounds.size() + 1;
    record.shortfall_before = world.Shortfall();

    ResidualView view;
    view.active = &world.ActiveMask();
    view.inactive_nodes = &world.InactiveNodes();
    view.shortfall = world.Shortfall();

    SelectionResult selection = selector.SelectBatch(view, rng);
    if (selection.seeds.empty()) {
      // Only a fired stop condition may abort a round without seeds; an
      // uncancelled selector returning nothing is still a hard bug.
      ASM_CHECK(Fired(cancel)) << selector.Name() << " returned no seeds";
      break;
    }
    for (NodeId seed : selection.seeds) {
      ASM_CHECK(seed < world.graph().NumNodes());
      ASM_CHECK(!world.IsActive(seed))
          << selector.Name() << " selected an already-active seed " << seed;
    }

    const std::vector<NodeId> activated = world.Observe(selection.seeds);
    record.seeds = std::move(selection.seeds);
    record.newly_activated = static_cast<NodeId>(activated.size());
    record.truncated_gain =
        std::min<NodeId>(record.newly_activated, record.shortfall_before);
    record.estimated_gain = selection.estimated_marginal_gain;
    record.num_samples = selection.num_samples;
    record.iterations = selection.iterations;
    record.answer = selection.answer;
    record.seconds = SecondsSince(round_start);

    trace.total_samples += record.num_samples;
    for (NodeId seed : record.seeds) trace.seeds.push_back(seed);
    trace.rounds.push_back(std::move(record));

    ASM_CHECK(trace.rounds.size() <= world.graph().NumNodes())
        << "adaptive loop failed to terminate";
  }
  trace.total_activated = world.NumActive();
  trace.target_reached = world.TargetReached();
  trace.seconds = SecondsSince(run_start);
  return trace;
}

}  // namespace asti
