// The TechnologyModel interface: how a (defect site, stress condition,
// sweep point) becomes a detectability verdict.
//
// estimator::characterize() owns everything technology-agnostic — canonical
// grid order, thread fan-out, retry escalation, chaos hooks, checkpointing,
// quarantine — and delegates the physics to the model selected by
// CharacterizeSpec::technology:
//
//   Sram6T     transistor-level analog transient per grid point (the
//              original flow, refactored behind this interface),
//   SttMram    closed-form magnetic-tunnel-junction fault models,
//   Undervolt  closed-form SRAM noise-margin/bit-error-rate collapse model
//              over the *same* defect grid as Sram6T.
//
// Adding a backend means implementing TechnologyModel (build_grid, and a
// make_context that hands build_grid(spec) to its SweepContext), the
// context's simulate_point over grid()[i] (simulate_batch only for a
// lockstep kernel), and registering it in model_for() — the estimator,
// study layer, server and coordinator pick it up unchanged (see TUTORIAL
// §12).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analog/batch.hpp"
#include "estimator/detectability.hpp"
#include "tech/technology.hpp"

namespace memstress::tech {

/// Outcome of one lane of a cell's simulate_batch(). `error` is the
/// failure's SolverError::reason() when !ok.
struct LaneResult {
  bool ok = false;
  bool detected = false;
  std::string error;
};

/// Per-sweep simulation state (e.g. the golden netlist for the analog
/// backend) and the grid it simulates. One context serves one
/// characterize()/characterize_range() call, which commits by grid(); its
/// methods must be safe to call from many threads at once.
class SweepContext {
 public:
  explicit SweepContext(std::vector<estimator::GridPoint> grid)
      : grid_(std::move(grid)) {}
  virtual ~SweepContext() = default;

  /// The canonical grid of the spec this context was made for (its model's
  /// build_grid(spec)); simulate_point(i, ...) simulates grid()[i].
  const std::vector<estimator::GridPoint>& grid() const { return grid_; }

  /// Scalar verdict for global grid point `index`, attempt escalation
  /// `rescue_level` (0 on the first attempt). Throws analog::SolverError on
  /// a typed solver failure — the estimator's retry ladder catches it.
  virtual bool simulate_point(std::size_t index, int rescue_level) = 0;

  /// Attempt-1 verdicts for `lanes` (global grid indices sharing one
  /// (kind, category, vdd, period) cell): the only way the estimator runs
  /// attempt 1 of a grid point. The default calls simulate_point(i, 0) per
  /// lane and turns a SolverError into a failed lane; override it only for
  /// a lockstep kernel. Failed lanes fall back to the estimator's scalar
  /// rescue ladder (attempts >= 2).
  virtual std::vector<LaneResult> simulate_batch(
      const std::vector<std::size_t>& lanes);

 private:
  std::vector<estimator::GridPoint> grid_;
};

class TechnologyModel {
 public:
  virtual ~TechnologyModel() = default;

  /// Enumerate the canonical characterization grid (detected bits left
  /// false). The estimator commits entries in exactly this order at every
  /// thread count, solver mode and shard layout.
  virtual std::vector<estimator::GridPoint> build_grid(
      const estimator::CharacterizeSpec& spec) const = 0;

  /// Build the per-sweep simulation state over build_grid(spec). `mode`
  /// picks how the context runs a cell: a backend with a lockstep kernel
  /// uses it in Batched and the per-lane default in Exact; closed-form
  /// backends ignore it.
  virtual std::unique_ptr<SweepContext> make_context(
      const estimator::CharacterizeSpec& spec,
      analog::SolverMode mode) const = 0;

  /// Append the technology-specific parameters that shape the produced
  /// entries to the spec_fingerprint() canonical string.
  virtual void append_fingerprint(const estimator::CharacterizeSpec& spec,
                                  std::string& canon) const = 0;
};

/// The registered model for a technology. Models are stateless singletons.
const TechnologyModel& model_for(Technology technology);

/// A CharacterizeSpec pre-loaded with the technology's conventional grid:
/// SttMram swaps the stimulus for the march-plus-hammer test; Undervolt
/// extends the Vdd axis below VLV ({0.6 .. 0.9} prepended) so the
/// bit-error-rate cliff is actually swept. block/ate/threads and the other
/// execution knobs are left at their defaults for the caller to fill in.
estimator::CharacterizeSpec default_characterize_spec(Technology technology);

}  // namespace memstress::tech
