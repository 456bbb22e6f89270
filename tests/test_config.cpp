// The cfg subsystem: the strict JSON reader (malformed-input rejection,
// exact round trips), the config parser-validator (unknown keys / type
// mismatches / out-of-range values are hard errors naming the JSON
// path, `{}` reproduces today's defaults bit-identically), scenario
// region semantics, and the to_json round trip.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <tuple>
#include <vector>

#include "app/problem_registry.hpp"
#include "app/simulation.hpp"
#include "cfg/config.hpp"
#include "cfg/json.hpp"
#include "hier/level_views.hpp"
#include "pdat/cuda/cuda_data.hpp"

namespace ramr {
namespace {

using cfg::Json;

// ---------------------------------------------------------------------------
// JSON reader.

TEST(Json, ParsesScalarsArraysObjects) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_DOUBLE_EQ(Json::parse("-2.5e3").as_number(), -2500.0);
  EXPECT_EQ(Json::parse("42").as_integer(), 42);
  EXPECT_TRUE(Json::parse("42").is_integer());
  EXPECT_FALSE(Json::parse("42.5").is_integer());
  EXPECT_EQ(Json::parse("\"hi\\nthere\"").as_string(), "hi\nthere");
  const Json arr = Json::parse("[1, \"two\", [3]]");
  ASSERT_EQ(arr.as_array().size(), 3u);
  EXPECT_EQ(arr.as_array()[1].as_string(), "two");
  const Json obj = Json::parse("{\"a\": {\"b\": 7}}");
  ASSERT_NE(obj.find("a"), nullptr);
  EXPECT_EQ(obj.find("a")->find("b")->as_integer(), 7);
  EXPECT_EQ(obj.find("missing"), nullptr);
}

TEST(Json, RejectsMalformedDocumentsWithLineContext) {
  const std::vector<const char*> bad = {
      "",             // empty
      "{",            // unterminated
      "[1, 2,]",      // trailing comma
      "{\"a\": 1,}",  // trailing comma in object
      "{'a': 1}",     // single quotes
      "{\"a\": 1} x", // trailing garbage
      "{\"a\": 1, \"a\": 2}",  // duplicate key
      "// comment\n{}",        // comments are not JSON
      "07",           // leading zero
      "nul",          // truncated literal
      "\"\\q\"",      // bad escape
  };
  for (const char* doc : bad) {
    EXPECT_THROW(Json::parse(doc), util::Error) << doc;
  }
  try {
    Json::parse("{\n  \"a\": )\n}");
    FAIL() << "expected parse error";
  } catch (const util::Error& e) {
    EXPECT_NE(std::strstr(e.what(), "line 2"), nullptr) << e.what();
  }
}

TEST(Json, DumpParseRoundTripIsExact) {
  const char* doc =
      "{\"s\": \"a\\\"b\", \"n\": 0.1, \"big\": 123456789012345, "
      "\"neg\": -1e-300, \"arr\": [true, false, null], \"o\": {}}";
  const Json parsed = Json::parse(doc);
  EXPECT_EQ(Json::parse(parsed.dump()), parsed);
  EXPECT_EQ(Json::parse(parsed.dump(-1)), parsed);  // compact form too
}

TEST(Json, TypeMismatchNamesActualType) {
  try {
    Json::parse("{\"a\": 1}").find("a")->as_string();
    FAIL() << "expected type error";
  } catch (const util::Error& e) {
    EXPECT_NE(std::strstr(e.what(), "number"), nullptr) << e.what();
  }
}

// ---------------------------------------------------------------------------
// Config validation: every rejection names the offending JSON path.

void expect_config_error(const char* doc, const char* path_fragment) {
  try {
    cfg::parse_run_config_text(doc);
    FAIL() << "config accepted: " << doc;
  } catch (const util::Error& e) {
    EXPECT_NE(std::strstr(e.what(), path_fragment), nullptr)
        << "error for " << doc << " does not name \"" << path_fragment
        << "\": " << e.what();
  }
}

TEST(Config, RejectsUnknownKeysNamingThePath) {
  expect_config_error("{\"gird\": {}}", "gird");
  expect_config_error("{\"grid\": {\"nz\": 4}}", "grid.nz");
  expect_config_error("{\"amr\": {\"max_level\": 2}}", "amr.max_level");
  expect_config_error("{\"output\": {\"vtk\": 1}}", "output.vtk");
  // No key selects the transfer path (the compiled plans are the only
  // one), so a config that still sets the old switch is rejected.
  expect_config_error("{\"execution\": {\"compiled_transfer\": true}}",
                      "execution.compiled_transfer");
}

TEST(Config, RejectsTypeMismatchesNamingThePath) {
  expect_config_error("{\"grid\": {\"nx\": \"big\"}}", "grid.nx");
  expect_config_error("{\"grid\": {\"nx\": 64.5}}", "grid.nx");
  expect_config_error("{\"execution\": {\"batched_launch\": 1}}",
                      "execution.batched_launch");
  expect_config_error("{\"problem\": 7}", "problem");
  expect_config_error("{\"amr\": 3}", "amr");
}

TEST(Config, RejectsOutOfRangeValuesNamingThePath) {
  // The three satellite cases, each with a distinct path in the error.
  expect_config_error("{\"amr\": {\"ratio\": 3, \"max_levels\": 2}}",
                      "amr.ratio");
  expect_config_error("{\"amr\": {\"min_patch_size\": 0}}",
                      "amr.min_patch_size");
  expect_config_error("{\"amr\": {\"tag_threshold\": -0.5}}",
                      "amr.tag_threshold");
  // And the rest of the range surface.
  expect_config_error("{\"grid\": {\"nx\": 0}}", "grid.nx");
  expect_config_error("{\"amr\": {\"cluster_efficiency\": 1.5}}",
                      "amr.cluster_efficiency");
  expect_config_error("{\"run\": {\"ranks\": 0}}", "run.ranks");
  expect_config_error("{\"output\": {\"checkpoint_interval\": -1}}",
                      "output.checkpoint_interval");
  expect_config_error("{\"device\": {\"preset\": \"h100\"}}",
                      "device.preset");
  expect_config_error("{\"network\": {\"preset\": \"ethernet\"}}",
                      "network.preset");
  expect_config_error("{\"problem\": \"sodd\"}", "problem");
}

TEST(Config, Ratio3IsFineOnASingleLevel) {
  const cfg::RunConfig c = cfg::parse_run_config_text(
      "{\"amr\": {\"ratio\": 3, \"max_levels\": 1}}");
  EXPECT_EQ(c.sim.ratio, 3);
  EXPECT_EQ(c.sim.max_levels, 1);
}

TEST(Config, ScenarioValidation) {
  expect_config_error(
      "{\"scenario\": {\"gamma\": 0.9}}", "scenario.gamma");
  expect_config_error(
      "{\"scenario\": {\"regions\": [{\"shape\": \"blob\"}]}}",
      "scenario.regions[0].shape");
  expect_config_error(
      "{\"scenario\": {\"regions\": [{\"shape\": \"circle\", "
      "\"center\": [0.5, 0.5]}]}}",
      "scenario.regions[0].radius");
  expect_config_error(
      "{\"scenario\": {\"regions\": [{\"shape\": \"box\", "
      "\"interface_side\": \"y_max\"}]}}",
      "scenario.regions[0].interface_side");
  expect_config_error(
      "{\"scenario\": {\"background\": {\"density\": -1}}}",
      "scenario.background.density");
  expect_config_error(
      "{\"problem\": \"sod\", \"scenario\": {\"name\": \"x\"}}", "problem");
}

TEST(Config, EmptyDocumentYieldsTodaysDefaults) {
  const cfg::RunConfig c = cfg::parse_run_config_text("{}");
  const app::SimulationConfig def;
  EXPECT_EQ(c.sim.problem, def.problem);
  EXPECT_EQ(c.sim.scenario, nullptr);
  EXPECT_EQ(c.sim.nx, def.nx);
  EXPECT_EQ(c.sim.ny, def.ny);
  EXPECT_EQ(c.sim.max_levels, def.max_levels);
  EXPECT_EQ(c.sim.ratio, def.ratio);
  EXPECT_EQ(c.sim.regrid_interval, def.regrid_interval);
  EXPECT_EQ(c.sim.tag_buffer, def.tag_buffer);
  EXPECT_DOUBLE_EQ(c.sim.tag_threshold, def.tag_threshold);
  EXPECT_EQ(c.sim.max_patch_cells, def.max_patch_cells);
  EXPECT_EQ(c.sim.min_patch_size, def.min_patch_size);
  EXPECT_DOUBLE_EQ(c.sim.cluster_efficiency, def.cluster_efficiency);
  EXPECT_EQ(c.sim.batched_launch, def.batched_launch);
  EXPECT_EQ(c.sim.async_overlap, def.async_overlap);
  EXPECT_EQ(c.sim.wide_overlap, def.wide_overlap);
  EXPECT_EQ(c.sim.device.name, def.device.name);
  EXPECT_DOUBLE_EQ(c.sim.device.peak_gflops, def.device.peak_gflops);
  EXPECT_EQ(c.network.name, simmpi::ideal_network().name);
  EXPECT_EQ(c.run.ranks, 1);
  EXPECT_TRUE(c.output.basename.empty());
}

using FieldKey = std::tuple<int, int, int, int, int>;
std::map<FieldKey, std::vector<double>> snapshot_fields(app::Simulation& sim) {
  std::map<FieldKey, std::vector<double>> out;
  for (int l = 0; l < sim.hierarchy().num_levels(); ++l) {
    hier::PatchLevel& level = sim.hierarchy().level(l);
    for (const auto& p : level.local_patches()) {
      for (int id = 0; id < p->data_count(); ++id) {
        const auto& cd = p->typed_data<pdat::cuda::CudaData>(id);
        const mesh::Centering centering =
            sim.hierarchy().variables().variable(id).centering;
        for (int k = 0; k < cd.components(); ++k) {
          const mesh::Box region = mesh::to_centering(
              p->box(), mesh::component_centering(centering, k));
          for (int d = 0; d < cd.component(k).depth(); ++d) {
            const util::View v = cd.device_view(k, d);
            std::vector<double> vals;
            vals.reserve(static_cast<std::size_t>(region.size()));
            for (int j = region.lower().j; j <= region.upper().j; ++j) {
              for (int i = region.lower().i; i <= region.upper().i; ++i) {
                vals.push_back(v(i, j));
              }
            }
            out.emplace(FieldKey{l, p->global_id(), id, k, d},
                        std::move(vals));
          }
        }
      }
    }
  }
  return out;
}

void expect_identical_fields(app::Simulation& a, app::Simulation& b) {
  const auto fa = snapshot_fields(a);
  const auto fb = snapshot_fields(b);
  ASSERT_EQ(fa.size(), fb.size());
  std::int64_t planes = 0;
  for (const auto& [key, vals] : fa) {
    const auto it = fb.find(key);
    ASSERT_NE(it, fb.end());
    ASSERT_EQ(it->second.size(), vals.size());
    ASSERT_EQ(std::memcmp(it->second.data(), vals.data(),
                          vals.size() * sizeof(double)),
              0)
        << "level " << std::get<0>(key) << " patch " << std::get<1>(key)
        << " var " << std::get<2>(key);
    ++planes;
  }
  EXPECT_GT(planes, 0);
}

TEST(Config, EmptyDocumentRunsBitIdenticallyToHardcodedDefaults) {
  // The acceptance contract: `{}` IS today's default Sod run. Smaller
  // grid to keep the test quick; field planes compared bit for bit.
  app::SimulationConfig def;
  def.nx = 64;
  def.ny = 64;
  cfg::RunConfig fromjson = cfg::parse_run_config_text(
      "{\"grid\": {\"nx\": 64, \"ny\": 64}}");

  app::Simulation a(def, nullptr);
  a.initialize();
  a.run(12);
  app::Simulation b(fromjson.sim, nullptr);
  b.initialize();
  b.run(12);
  ASSERT_DOUBLE_EQ(a.last_dt(), b.last_dt());
  expect_identical_fields(a, b);
}

// ---------------------------------------------------------------------------
// Round trip.

TEST(Config, ToJsonRoundTripsEveryField) {
  const char* doc =
      "{\"problem\": \"sedov\","
      " \"grid\": {\"nx\": 192, \"ny\": 160},"
      " \"amr\": {\"max_levels\": 2, \"ratio\": 4, \"regrid_interval\": 7,"
      "  \"tag_buffer\": 1, \"tag_threshold\": 0.125,"
      "  \"max_patch_cells\": 1024, \"min_patch_size\": 4,"
      "  \"cluster_efficiency\": 0.5},"
      " \"execution\": {\"batched_launch\": false,"
      "  \"async_overlap\": true, \"wide_overlap\": false},"
      " \"device\": {\"preset\": \"opteron_6274_node\","
      "  \"peak_gflops\": 100.0},"
      " \"network\": {\"preset\": \"cray_gemini\", \"latency_s\": 2e-6},"
      " \"run\": {\"max_steps\": 55, \"end_time\": 0.75, \"ranks\": 2},"
      " \"output\": {\"basename\": \"blast\", \"checkpoint_interval\": 5,"
      "  \"vtk_interval\": 10}}";
  const cfg::RunConfig c = cfg::parse_run_config_text(doc);
  EXPECT_EQ(c.sim.problem, "sedov");
  EXPECT_EQ(c.sim.ratio, 4);
  EXPECT_FALSE(c.sim.batched_launch);
  EXPECT_TRUE(c.sim.async_overlap);
  EXPECT_EQ(c.sim.device.name, vgpu::opteron_6274_node().name);
  EXPECT_DOUBLE_EQ(c.sim.device.peak_gflops, 100.0);  // override applied
  EXPECT_DOUBLE_EQ(c.network.latency_s, 2e-6);
  EXPECT_EQ(c.run.max_steps, 55);
  EXPECT_EQ(c.output.basename, "blast");

  // to_json emits the full effective config; re-parsing it reproduces
  // the same document (fixed point).
  const Json dumped = cfg::to_json(c);
  const cfg::RunConfig back = cfg::parse_run_config(dumped);
  EXPECT_EQ(cfg::to_json(back), dumped);
  EXPECT_EQ(back.sim.problem, "sedov");
  EXPECT_DOUBLE_EQ(back.sim.device.peak_gflops, 100.0);
}

TEST(Config, InlineScenarioRoundTripsThroughToJson) {
  const char* doc =
      "{\"scenario\": {\"name\": \"shear\","
      "  \"domain_upper\": [2.0, 1.0], \"gamma\": 1.6,"
      "  \"gravity\": [0.0, -0.25],"
      "  \"background\": {\"density\": 1.0, \"energy\": 2.0, \"xvel\": 0.5},"
      "  \"regions\": ["
      "   {\"shape\": \"box\", \"y_max\": 0.5, \"interface_side\": \"y_max\","
      "    \"interface_amplitude\": 0.01, \"interface_wavelength\": 0.5,"
      "    \"state\": {\"density\": 2.0, \"energy\": 1.0, \"xvel\": -0.5}},"
      "   {\"shape\": \"circle\", \"center\": [1.0, 0.5], \"radius\": 0.1,"
      "    \"state\": {\"density\": 4.0, \"energy\": 0.5}},"
      "   {\"shape\": \"ramp\", \"axis\": \"y\", \"from\": 0.25,"
      "    \"to\": 0.75, \"state0\": {\"density\": 1.0},"
      "    \"state1\": {\"density\": 3.0}}]}}";
  const cfg::RunConfig c = cfg::parse_run_config_text(doc);
  ASSERT_NE(c.sim.scenario, nullptr);
  EXPECT_EQ(c.sim.problem, "shear");
  EXPECT_DOUBLE_EQ(c.sim.scenario->gamma, 1.6);
  ASSERT_EQ(c.sim.scenario->regions.size(), 3u);
  EXPECT_TRUE(c.sim.scenario->has_velocity());
  EXPECT_FALSE(c.sim.scenario->gravity_free());

  // Region semantics: the perturbed interface moves with x.
  const cfg::Region& box = c.sim.scenario->regions[0];
  EXPECT_TRUE(box.contains(0.0, 0.505));   // cos(0) lifts the bound
  EXPECT_FALSE(box.contains(0.25, 0.505)); // cos(pi) lowers it

  const Json dumped = cfg::to_json(c);
  const cfg::RunConfig back = cfg::parse_run_config(dumped);
  EXPECT_EQ(cfg::to_json(back), dumped);
  ASSERT_NE(back.sim.scenario, nullptr);
  ASSERT_EQ(back.sim.scenario->regions.size(), 3u);
  EXPECT_EQ(back.sim.scenario->regions[1].radius,
            c.sim.scenario->regions[1].radius);
}

// ---------------------------------------------------------------------------
// Registry.

TEST(ProblemRegistry, KnowsTheFiveStockProblems) {
  const auto& reg = app::ProblemRegistry::instance();
  for (const char* name : {"sod", "triple_point", "sedov", "kelvin_helmholtz",
                           "rayleigh_taylor"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
  }
  EXPECT_FALSE(reg.contains("noodle"));
  // Scenario-backed entries expose their spec; factory-backed do not.
  EXPECT_NE(reg.scenario("sedov"), nullptr);
  EXPECT_EQ(reg.scenario("sod"), nullptr);
  EXPECT_GE(reg.names().size(), 5u);
}

TEST(ProblemRegistry, UnknownNameListsKnownOnes) {
  app::SimulationConfig cfg;
  cfg.problem = "noodle";
  try {
    app::Simulation sim(cfg, nullptr);
    FAIL() << "expected unknown-problem error";
  } catch (const util::Error& e) {
    EXPECT_NE(std::strstr(e.what(), "noodle"), nullptr);
    EXPECT_NE(std::strstr(e.what(), "sedov"), nullptr) << e.what();
  }
}

}  // namespace
}  // namespace ramr
