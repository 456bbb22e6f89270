// Test problems (paper §V): the Sod shock tube used for the serial and
// strong-scaling studies, and the triple-point shock interaction used
// for the weak-scaling study on Titan. Both provide initial conditions
// and the gradient-based refinement-flagging heuristic, evaluated as
// data-parallel device kernels (paper §IV-C: "evaluating the tagging
// heuristic at each mesh cell is trivially parallel").
//
// Beyond the two C++-coded classics, RegionProblem adapts a declarative
// cfg::ScenarioSpec (background + box/circle/ramp regions, optional
// gamma / gravity / initial velocity) to the same interface — the route
// every JSON-configured scenario takes (docs/scenarios.md).
#pragma once

#include <array>
#include <functional>
#include <memory>

#include "amr/tag_strategy.hpp"
#include "app/fields.hpp"
#include "cfg/scenario.hpp"
#include "hydro/kernels.hpp"

namespace ramr::app {

/// (density, specific internal energy) at a physical point.
using InitialState = std::function<std::array<double, 2>(double x, double y)>;

/// (x-velocity, y-velocity) at a physical point (node-centred).
using InitialVelocity =
    std::function<std::array<double, 2>(double x, double y)>;

/// Common CleverLeaf problem behaviour: analytic initial data for every
/// field and density/energy gradient tagging.
class HydroProblem : public amr::TagStrategy {
 public:
  HydroProblem(const Fields& fields, double tag_threshold)
      : fields_(fields), tag_threshold_(tag_threshold) {}

  void initialize_level_data(hier::Patch& patch, const hier::PatchLevel& level,
                             const mesh::GridGeometry& geometry,
                             double time) override;

  void tag_cells(const hier::PatchLevel& level,
                 const mesh::GridGeometry& geometry, amr::LevelTagData& tags,
                 double time) override;

  /// Physical domain this problem is defined on.
  virtual std::array<double, 2> domain_lower() const = 0;
  virtual std::array<double, 2> domain_upper() const = 0;

  /// Initial (rho, e) as a function of position.
  virtual InitialState initial_state() const = 0;

  /// Initial nodal velocity, or null for the at-rest default. Null keeps
  /// initialization on the exact zero-fill path of the historical
  /// problems; a non-null function is evaluated at node coordinates over
  /// the full ghost box, like the cell state.
  virtual InitialVelocity initial_velocity() const { return nullptr; }

  /// Scenario physics; the defaults are the historical constants.
  virtual hydro::Physics physics() const { return {}; }

 private:
  Fields fields_;
  double tag_threshold_;
};

/// Sod shock tube (planar, along x): (rho, p) = (1, 1) on the left,
/// (0.125, 0.1) on the right of x = 0.5 on a unit square.
class SodProblem : public HydroProblem {
 public:
  SodProblem(const Fields& fields, double tag_threshold = 0.05)
      : HydroProblem(fields, tag_threshold) {}
  std::array<double, 2> domain_lower() const override { return {0.0, 0.0}; }
  std::array<double, 2> domain_upper() const override { return {1.0, 1.0}; }
  InitialState initial_state() const override;
};

/// Triple-point shock interaction (Galera et al. [33]): a 7 x 3
/// rectangle; a high-pressure driver for x < 1 and two low-pressure
/// regions of different density above and below y = 1.5 for x > 1. A
/// strong shock runs left to right, generating vorticity and a complex
/// rolled-up interface — the paper's weak-scaling workload.
class TriplePointProblem : public HydroProblem {
 public:
  TriplePointProblem(const Fields& fields, double tag_threshold = 0.05)
      : HydroProblem(fields, tag_threshold) {}
  std::array<double, 2> domain_lower() const override { return {0.0, 0.0}; }
  std::array<double, 2> domain_upper() const override { return {7.0, 3.0}; }
  InitialState initial_state() const override;
};

/// A problem defined entirely by a cfg::ScenarioSpec: initial state is
/// the spec's painted regions, physics its gamma/gravity. Scenarios with
/// no velocity anywhere keep the zero-fill initialization path, so a
/// region spec that reproduces a built-in problem's analytic state
/// produces bit-identical runs.
class RegionProblem : public HydroProblem {
 public:
  RegionProblem(const Fields& fields, double tag_threshold,
                std::shared_ptr<const cfg::ScenarioSpec> spec)
      : HydroProblem(fields, tag_threshold), spec_(std::move(spec)) {
    RAMR_REQUIRE(spec_ != nullptr, "RegionProblem needs a scenario spec");
  }

  std::array<double, 2> domain_lower() const override {
    return spec_->domain_lower;
  }
  std::array<double, 2> domain_upper() const override {
    return spec_->domain_upper;
  }
  InitialState initial_state() const override;
  InitialVelocity initial_velocity() const override;
  hydro::Physics physics() const override {
    return {spec_->gamma, spec_->gravity[0], spec_->gravity[1]};
  }

  const cfg::ScenarioSpec& spec() const { return *spec_; }

 private:
  std::shared_ptr<const cfg::ScenarioSpec> spec_;
};

}  // namespace ramr::app
