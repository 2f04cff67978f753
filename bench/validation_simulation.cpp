// Validation: closed forms vs discrete-event simulation.
//
// For each scheme the empirical tune-in latency distribution must respect
// the Table 1 worst case, and SB clients (run through the exact reception
// plan) must stay jitter-free with buffers inside the published bound.
#include <cstdio>
#include <string>

#include "analysis/experiments.hpp"
#include "schemes/registry.hpp"
#include "sim/simulator.hpp"
#include "util/text_table.hpp"

#include "harness/harness.hpp"

int main(int argc, char** argv) {
  vodbcast::bench::Session session("validation_simulation", argc, argv);
  using namespace vodbcast;
  std::puts("=== Validation: simulation vs closed forms (B = 300 Mb/s) ===\n");
  const auto input = analysis::paper_design_input(300.0);

  util::TextTable table({"scheme", "clients", "sim mean wait", "sim max wait",
                         "formula worst", "jitter events",
                         "sim buffer max (MB)", "formula buffer (MB)"});
  for (const char* label : {"PB:a", "PB:b", "PPB:a", "PPB:b", "SB:W=2",
                            "SB:W=52", "staggered"}) {
    const auto scheme = schemes::make_scheme(label);
    const auto eval = scheme->evaluate(input);
    if (!eval.has_value()) {
      table.add_row({label, "-", "-", "-", "-", "-", "-", "-"});
      continue;
    }
    const auto report =
        session.run(std::string("simulate/") + label, [&] {
          sim::SimulationConfig config;
          config.horizon = core::Minutes{240.0};
          config.arrivals_per_minute = 4.0;
          config.plan_clients = true;
          config.sink = &session.sink();
          return sim::simulate(*scheme, input, config);
        });
    table.add_row(
        {label,
         util::TextTable::num(static_cast<long long>(report.clients_served)),
         util::TextTable::num(report.latency_minutes.mean(), 4),
         util::TextTable::num(report.latency_minutes.max(), 4),
         util::TextTable::num(eval->metrics.access_latency.v, 4),
         util::TextTable::num(static_cast<long long>(report.jitter_events)),
         report.buffer_peak_mbits.empty()
             ? "-"
             : util::TextTable::num(report.buffer_peak_mbits.max() / 8.0, 1),
         util::TextTable::num(eval->metrics.client_buffer.mbytes(), 1)});
  }
  std::puts(table.render().c_str());
  std::puts("sim max wait <= formula worst and jitter events = 0 validate "
            "the closed forms.");

  // Replicated run: 4 seeded replications of the SB:W=52 simulation, pooled
  // across --threads workers. The merged distribution tightens the mean-wait
  // estimate and carries a 95% CI; the result is identical at any thread
  // count.
  const auto replicated = session.run("simulate_replicated/SB:W=52", [&] {
    const auto scheme = schemes::make_scheme("SB:W=52");
    sim::SimulationConfig config;
    config.horizon = core::Minutes{240.0};
    config.arrivals_per_minute = 4.0;
    config.plan_clients = true;
    return sim::simulate_replicated(*scheme, input, config, 4,
                                    session.pool());
  });
  std::printf("\nSB:W=52 x%zu replications: mean wait %.4f +/- %.4f min "
              "(95%% CI, %llu clients)\n",
              replicated.replications,
              replicated.merged.latency_minutes.mean(),
              replicated.mean_ci95,
              static_cast<unsigned long long>(
                  replicated.merged.clients_served));
  return 0;
}
