// Unit tests for the simulated MPI layer: point-to-point ordering,
// collectives, the network cost model, and error propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include "simmpi/communicator.hpp"
#include "util/error.hpp"

namespace ramr::simmpi {
namespace {

TEST(World, RunsEveryRankExactlyOnce) {
  World world(8, ideal_network());
  std::atomic<int> count{0};
  std::atomic<int> rank_sum{0};
  world.run([&](Communicator& comm) {
    ++count;
    rank_sum += comm.rank();
    EXPECT_EQ(comm.size(), 8);
  });
  EXPECT_EQ(count.load(), 8);
  EXPECT_EQ(rank_sum.load(), 28);
}

TEST(Communicator, SendRecvValue) {
  World world(2, ideal_network());
  world.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 7, 42.5);
    } else {
      EXPECT_DOUBLE_EQ(comm.recv_value<double>(0, 7), 42.5);
    }
  });
}

TEST(Communicator, MessagesFromOneSenderArriveInOrder) {
  World world(2, ideal_network());
  world.run([](Communicator& comm) {
    constexpr int kMessages = 100;
    if (comm.rank() == 0) {
      for (int m = 0; m < kMessages; ++m) {
        comm.send_value(1, 3, m);
      }
    } else {
      for (int m = 0; m < kMessages; ++m) {
        ASSERT_EQ(comm.recv_value<int>(0, 3), m);
      }
    }
  });
}

TEST(Communicator, TagsSeparateStreams) {
  World world(2, ideal_network());
  world.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 1, 100);
      comm.send_value(1, 2, 200);
    } else {
      // Receive in the opposite tag order.
      EXPECT_EQ(comm.recv_value<int>(0, 2), 200);
      EXPECT_EQ(comm.recv_value<int>(0, 1), 100);
    }
  });
}

TEST(Communicator, VariableSizedPayloads) {
  World world(2, ideal_network());
  world.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<double> payload(777);
      std::iota(payload.begin(), payload.end(), 0.0);
      comm.send(1, 5, payload.data(), payload.size() * sizeof(double));
    } else {
      const auto bytes = comm.recv(0, 5);
      ASSERT_EQ(bytes.size(), 777 * sizeof(double));
      std::vector<double> payload(777);
      std::memcpy(payload.data(), bytes.data(), bytes.size());
      EXPECT_DOUBLE_EQ(payload[0], 0.0);
      EXPECT_DOUBLE_EQ(payload[776], 776.0);
    }
  });
}

TEST(Communicator, NonblockingExchangeCompletesPostedReceives) {
  // The aggregated-transfer pattern: post the receive first, pack and
  // isend afterwards, wait for both.
  World world(2, ideal_network());
  world.run([](Communicator& comm) {
    const int peer = 1 - comm.rank();
    Request recv = comm.irecv(peer, 11);
    EXPECT_FALSE(recv.done());

    std::vector<double> payload(16, comm.rank() + 0.5);
    std::vector<Request> sends;
    sends.push_back(
        comm.isend(peer, 11, payload.data(), payload.size() * sizeof(double)));
    EXPECT_TRUE(sends.front().done());

    comm.wait(recv);
    EXPECT_TRUE(recv.done());
    const std::vector<std::byte> bytes = recv.take_payload();
    ASSERT_EQ(bytes.size(), 16 * sizeof(double));
    double got = 0.0;
    std::memcpy(&got, bytes.data(), sizeof(double));
    EXPECT_DOUBLE_EQ(got, peer + 0.5);
    comm.wait_all(sends);
  });
}

TEST(Communicator, StatsCountPointToPointTraffic) {
  World world(2, ideal_network());
  world.run([](Communicator& comm) {
    const int peer = 1 - comm.rank();
    EXPECT_EQ(comm.stats().messages_sent, 0u);
    Request recv = comm.irecv(peer, 4);
    const double v = 3.25;
    comm.isend(peer, 4, &v, sizeof(v));
    comm.wait(recv);

    const CommStats s = comm.stats();
    EXPECT_EQ(s.messages_sent, 1u);
    EXPECT_EQ(s.bytes_sent, sizeof(double));
    EXPECT_EQ(s.messages_received, 1u);
    EXPECT_EQ(s.bytes_received, sizeof(double));

    comm.reset_stats();
    EXPECT_EQ(comm.stats().messages_sent, 0u);
    EXPECT_EQ(comm.stats().bytes_received, 0u);
  });
}

TEST(Communicator, AllreduceMinMaxSum) {
  World world(7, ideal_network());
  world.run([](Communicator& comm) {
    const double mine = static_cast<double>(comm.rank() + 1);
    EXPECT_DOUBLE_EQ(comm.allreduce(mine, ReduceOp::kMin), 1.0);
    EXPECT_DOUBLE_EQ(comm.allreduce(mine, ReduceOp::kMax), 7.0);
    EXPECT_DOUBLE_EQ(comm.allreduce(mine, ReduceOp::kSum), 28.0);
    const std::int64_t imine = comm.rank();
    EXPECT_EQ(comm.allreduce(imine, ReduceOp::kSum), 21);
  });
}

TEST(Communicator, AllreduceSumFoldsInRankOrderWhateverTheArrivalOrder) {
  // Values whose floating-point sum depends on the association: only a
  // fold in rank order gives the same bits on every round, whichever
  // rank arrives last.
  for (int ranks = 3; ranks <= 8; ++ranks) {
    std::vector<double> values;
    for (int r = 0; r < ranks; ++r) {
      values.push_back(r % 3 == 0   ? 1.0e16
                       : r % 3 == 1 ? 1.0 + 0.1 * r
                                    : -1.0e16);
    }
    double expect = values[0];
    for (int r = 1; r < ranks; ++r) {
      expect += values[static_cast<std::size_t>(r)];
    }
    World world(ranks, ideal_network());
    world.run([&](Communicator& comm) {
      for (int round = 0; round < ranks; ++round) {
        // Stagger arrivals: a different rank arrives last each round.
        const int delay = (comm.rank() + round) % ranks;
        std::this_thread::sleep_for(std::chrono::microseconds(200 * delay));
        const double got = comm.allreduce(
            values[static_cast<std::size_t>(comm.rank())], ReduceOp::kSum);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(expect))
            << ranks << " ranks, round " << round;
      }
    });
  }
}

TEST(Communicator, RepeatedCollectivesStayInSync) {
  World world(5, ideal_network());
  world.run([](Communicator& comm) {
    for (int round = 0; round < 50; ++round) {
      const double v = comm.rank() * 100.0 + round;
      EXPECT_DOUBLE_EQ(comm.allreduce(v, ReduceOp::kMin),
                       static_cast<double>(round));
    }
  });
}

TEST(Communicator, AllgatherReturnsEveryRanksBuffer) {
  World world(4, ideal_network());
  world.run([](Communicator& comm) {
    const int mine = comm.rank() * 11;
    const auto all = comm.allgather(&mine, sizeof(int));
    ASSERT_EQ(all.size(), 4u);
    for (int r = 0; r < 4; ++r) {
      int v = 0;
      std::memcpy(&v, all[static_cast<std::size_t>(r)].data(), sizeof(int));
      EXPECT_EQ(v, r * 11);
    }
  });
}

TEST(Communicator, AllgatherWithEmptyContributions) {
  World world(3, ideal_network());
  world.run([](Communicator& comm) {
    std::vector<std::byte> mine;
    if (comm.rank() == 1) {
      mine.resize(8);
    }
    const auto all = comm.allgather(mine.data(), mine.size());
    EXPECT_TRUE(all[0].empty());
    EXPECT_EQ(all[1].size(), 8u);
    EXPECT_TRUE(all[2].empty());
  });
}

TEST(Communicator, BarrierSynchronises) {
  World world(6, ideal_network());
  std::atomic<int> before{0};
  world.run([&](Communicator& comm) {
    ++before;
    comm.barrier();
    // After the barrier every rank must have incremented.
    EXPECT_EQ(before.load(), 6);
  });
}

TEST(Communicator, NetworkCostCharged) {
  const NetworkSpec net = cray_gemini();
  World world(2, net);
  std::vector<double> times(2, -1.0);
  std::vector<double> done(2, -1.0);
  world.run([&](Communicator& comm) {
    const std::vector<double> payload(1 << 14, 1.0);
    if (comm.rank() == 0) {
      comm.send(1, 1, payload.data(), payload.size() * sizeof(double));
    } else {
      (void)comm.recv(0, 1);
    }
    times[static_cast<std::size_t>(comm.rank())] = comm.clock().total();
    done[static_cast<std::size_t>(comm.rank())] =
        comm.clock().timeline().makespan();
  });
  const double expected = net.message_time((1 << 14) * sizeof(double));
  EXPECT_NEAR(times[0], expected, expected * 1e-9);  // sender pays
  EXPECT_NEAR(done[0], expected, expected * 1e-9);
  // The receiver pays nothing: it waits for the arrival, so it completes
  // when the wire does.
  EXPECT_DOUBLE_EQ(times[1], 0.0);
  EXPECT_NEAR(done[1], expected, expected * 1e-9);
}

TEST(Communicator, AllreduceCostScalesWithLogP) {
  for (int p : {2, 8}) {
    const NetworkSpec net = fdr_infiniband();
    World world(p, net);
    std::vector<double> t(static_cast<std::size_t>(p), 0.0);
    world.run([&](Communicator& comm) {
      comm.allreduce(1.0, ReduceOp::kSum);
      t[static_cast<std::size_t>(comm.rank())] = comm.clock().total();
    });
    const double depth = std::ceil(std::log2(static_cast<double>(p)));
    const double expected = 2.0 * depth * net.message_time(sizeof(double));
    EXPECT_NEAR(t[0], expected, expected * 1e-9);
  }
}

TEST(Communicator, SingleRankCollectivesAreFree) {
  World world(1, cray_gemini());
  world.run([](Communicator& comm) {
    EXPECT_DOUBLE_EQ(comm.allreduce(5.0, ReduceOp::kMax), 5.0);
    comm.barrier();
    EXPECT_DOUBLE_EQ(comm.clock().total(), 0.0);
  });
}

TEST(World, RankExceptionPropagates) {
  World world(3, ideal_network());
  EXPECT_THROW(world.run([](Communicator& comm) {
                 if (comm.rank() == 2) {
                   RAMR_FAIL("rank 2 exploded");
                 }
               }),
               util::Error);
}

TEST(World, RejectsBadRanks) {
  World world(2, ideal_network());
  world.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      EXPECT_THROW(comm.send_value(5, 0, 1), util::Error);
    }
  });
}

}  // namespace
}  // namespace ramr::simmpi
