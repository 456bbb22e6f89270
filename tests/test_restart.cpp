// Tests for the restart database (Fig. 2: putToRestart/getFromRestart)
// and whole-simulation checkpointing: byte-exact round trips, deviced
// data crossing PCIe exactly once per plane, and checkpointed runs
// continuing bitwise-identically to uninterrupted ones.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <tuple>
#include <vector>

#include "app/simulation.hpp"
#include "hier/level_views.hpp"
#include "pdat/cuda/cuda_data.hpp"
#include "pdat/database.hpp"

namespace ramr {
namespace {

using mesh::Box;
using mesh::IntVector;
using pdat::Database;

std::string temp_path(const char* name) {
  return std::string("/tmp/ramr_test_") + name + "_" +
         std::to_string(::getpid());
}

TEST(Database, TypedRoundTrip) {
  Database db;
  db.put_value<int>("i", 42);
  db.put_value<double>("d", 2.5);
  db.put_string("s", "hello world");
  const std::vector<double> xs = {1.0, -2.0, 3.5};
  db.put_doubles("xs", xs.data(), xs.size());
  EXPECT_EQ(db.get_value<int>("i"), 42);
  EXPECT_DOUBLE_EQ(db.get_value<double>("d"), 2.5);
  EXPECT_EQ(db.get_string("s"), "hello world");
  EXPECT_EQ(db.get_doubles("xs"), xs);
  EXPECT_TRUE(db.has("i"));
  EXPECT_FALSE(db.has("missing"));
  EXPECT_THROW(db.get_bytes("missing"), util::Error);
  EXPECT_THROW(db.get_value<double>("i"), util::Error);  // size mismatch
}

TEST(Database, FileRoundTrip) {
  Database db;
  db.put_value<int>("answer", 7);
  std::vector<double> payload(1000);
  for (std::size_t n = 0; n < payload.size(); ++n) {
    payload[n] = 0.25 * static_cast<double>(n);
  }
  db.put_doubles("payload", payload.data(), payload.size());
  db.put_bytes("empty", nullptr, 0);
  const std::string path = temp_path("db");
  db.write_file(path);
  const Database back = Database::read_file(path);
  EXPECT_EQ(back.size(), 3u);
  EXPECT_EQ(back.get_value<int>("answer"), 7);
  EXPECT_EQ(back.get_doubles("payload"), payload);
  EXPECT_TRUE(back.get_bytes("empty").empty());
  std::remove(path.c_str());
}

TEST(Database, RejectsGarbageFiles) {
  const std::string path = temp_path("garbage");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("this is not a restart file", f);
    std::fclose(f);
  }
  EXPECT_THROW(Database::read_file(path), util::Error);
  std::remove(path.c_str());
  EXPECT_THROW(Database::read_file("/nonexistent/nope"), util::Error);
}

TEST(Database, KeysWithPrefix) {
  Database db;
  db.put_value<int>("a.x", 1);
  db.put_value<int>("a.y", 2);
  db.put_value<int>("b.x", 3);
  EXPECT_EQ(db.keys_with_prefix("a.").size(), 2u);
  EXPECT_EQ(db.keys_with_prefix("b.").size(), 1u);
  EXPECT_TRUE(db.keys_with_prefix("c.").empty());
}

TEST(Restart, CudaDataRoundTripCrossesPcieOncePerPlane) {
  vgpu::Device dev(vgpu::tesla_k20x());
  pdat::cuda::CudaCellData src(dev, Box(0, 0, 15, 15), IntVector(2, 2));
  src.fill(3.75);
  src.set_time(0.5);
  const auto before = dev.transfers();
  Database db;
  src.put_to_restart(db, "g");
  const auto after_put = dev.transfers() - before;
  EXPECT_EQ(after_put.d2h_count, 1u);  // one plane, one download
  pdat::cuda::CudaCellData dst(dev, Box(0, 0, 15, 15), IntVector(2, 2));
  dst.get_from_restart(db, "g");
  EXPECT_DOUBLE_EQ(dst.time(), 0.5);
  const auto plane = dst.component(0).download_plane();
  for (double v : plane) {
    ASSERT_DOUBLE_EQ(v, 3.75);
  }
}

TEST(Restart, CheckpointedRunContinuesBitwiseIdentically) {
  app::SimulationConfig cfg;
  cfg.problem = "sod";
  cfg.nx = 64;
  cfg.ny = 64;
  cfg.max_levels = 3;
  cfg.regrid_interval = 5;
  const std::string path = temp_path("ckpt");

  // Uninterrupted run: 8 + 7 steps.
  app::Simulation full(cfg, nullptr);
  full.initialize();
  full.run(15);
  const auto expect = full.composite_summary();

  // Interrupted run: 8 steps, checkpoint, restore into a new instance,
  // 7 more steps.
  {
    app::Simulation first(cfg, nullptr);
    first.initialize();
    first.run(8);
    first.save_checkpoint(path);
  }
  app::Simulation resumed(cfg, nullptr);
  resumed.restore_checkpoint(path);
  EXPECT_EQ(resumed.step_count(), 8);
  resumed.run(7);
  EXPECT_EQ(resumed.step_count(), 15);
  const auto got = resumed.composite_summary();
  EXPECT_DOUBLE_EQ(got.mass, expect.mass);
  EXPECT_DOUBLE_EQ(got.internal_energy, expect.internal_energy);
  EXPECT_DOUBLE_EQ(got.kinetic_energy, expect.kinetic_energy);
  std::remove((path + ".rank0").c_str());
}

TEST(Restart, ChecksConfigurationCompatibility) {
  app::SimulationConfig cfg;
  cfg.problem = "sod";
  cfg.nx = 64;
  cfg.ny = 64;
  const std::string path = temp_path("ckpt_mismatch");
  {
    app::Simulation sim(cfg, nullptr);
    sim.initialize();
    sim.save_checkpoint(path);
  }
  app::SimulationConfig other = cfg;
  other.nx = 128;
  app::Simulation sim(other, nullptr);
  EXPECT_THROW(sim.restore_checkpoint(path), util::Error);
  std::remove((path + ".rank0").c_str());
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

TEST(Restart, BitIdenticalAcrossTheExecutionConfigMatrix) {
  // Every execution mode must checkpoint/restore bit-identically — and
  // the break happens MID-regrid-interval (step 8 with regrids at 5 and
  // 10), so the restored run must also reproduce the next regrid from
  // restored tag state, not just restored fields.
  struct Mode {
    const char* name;
    bool async_overlap;
    bool wide_overlap;
  };
  const Mode modes[] = {
      {"sync", false, false},
      {"async_narrow", true, false},
      {"async_wide", true, true},
  };
  for (const Mode& m : modes) {
    SCOPED_TRACE(m.name);
    app::SimulationConfig cfg;
    cfg.problem = "sod";
    cfg.nx = 64;
    cfg.ny = 64;
    cfg.max_levels = 3;
    cfg.regrid_interval = 5;
    cfg.async_overlap = m.async_overlap;
    cfg.wide_overlap = m.wide_overlap;
    const std::string path = temp_path((std::string("ckpt_") + m.name).c_str());

    app::Simulation full(cfg, nullptr);
    full.initialize();
    full.run(12);
    const auto expect = snapshot_fields(full);

    {
      app::Simulation first(cfg, nullptr);
      first.initialize();
      first.run(8);
      first.save_checkpoint(path);
    }
    app::Simulation resumed(cfg, nullptr);
    resumed.restore_checkpoint(path);
    resumed.run(4);
    ASSERT_DOUBLE_EQ(resumed.last_dt(), full.last_dt());
    const auto got = snapshot_fields(resumed);

    ASSERT_EQ(got.size(), expect.size());
    for (const auto& [key, vals] : expect) {
      const auto it = got.find(key);
      ASSERT_NE(it, got.end());
      ASSERT_EQ(it->second.size(), vals.size());
      ASSERT_EQ(std::memcmp(it->second.data(), vals.data(),
                            vals.size() * sizeof(double)),
                0)
          << "level " << std::get<0>(key) << " patch " << std::get<1>(key)
          << " var " << std::get<2>(key);
    }
    std::remove((path + ".rank0").c_str());
  }
}

TEST(Restart, DistributedCheckpointRoundTrip) {
  app::SimulationConfig cfg;
  cfg.problem = "sod";
  cfg.nx = 64;
  cfg.ny = 64;
  cfg.max_levels = 2;
  const std::string path = temp_path("ckpt_dist");
  std::vector<double> masses(2, 0.0);
  simmpi::World world(2, simmpi::ideal_network());
  world.run([&](simmpi::Communicator& comm) {
    app::Simulation sim(cfg, &comm);
    sim.initialize();
    sim.run(5);
    const auto before = sim.composite_summary();
    sim.save_checkpoint(path);
    app::Simulation back(cfg, &comm);
    back.restore_checkpoint(path);
    const auto after = back.composite_summary();
    if (comm.rank() == 0) {
      masses[0] = before.mass;
      masses[1] = after.mass;
    }
  });
  EXPECT_DOUBLE_EQ(masses[0], masses[1]);
  std::remove((path + ".rank0").c_str());
  std::remove((path + ".rank1").c_str());
}

}  // namespace
}  // namespace ramr
