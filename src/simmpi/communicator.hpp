// Simulated MPI: ranks are threads in one process.
//
// The communication *structure* of the AMR algorithm (who sends what to
// whom, message counts and sizes, global reductions) is executed for
// real through tagged mailboxes; only the wire time is modeled, using a
// NetworkSpec, and charged once, to the sending rank's SimClock. The API
// is the small subset of MPI the paper's code needs (see the LLNL MPI
// tutorial: most MPI programs use a dozen routines or fewer).
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "simmpi/network_spec.hpp"
#include "util/fault.hpp"
#include "vgpu/sim_clock.hpp"
#include "vgpu/timeline.hpp"

namespace ramr::simmpi {

class World;

/// Reduction operators for allreduce.
enum class ReduceOp { kMin, kMax, kSum };

/// Point-to-point traffic counters for one rank. Collectives are not
/// counted: these exist so tests and benches can assert how many
/// aggregated messages a communication schedule really exchanges.
struct CommStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_received = 0;
  /// Injected wire faults (util/fault.hpp). A dropped message is
  /// retransmitted after a timeout and a delayed one arrives late —
  /// delivery still happens exactly once, so physics stays bit-identical;
  /// only the modeled wire time grows.
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_delayed = 0;

  CommStats operator-(const CommStats& rhs) const {
    return CommStats{messages_sent - rhs.messages_sent,
                     bytes_sent - rhs.bytes_sent,
                     messages_received - rhs.messages_received,
                     bytes_received - rhs.bytes_received,
                     messages_dropped - rhs.messages_dropped,
                     messages_delayed - rhs.messages_delayed};
  }
};

/// Handle for a nonblocking operation. Sends complete immediately (the
/// mailbox buffers them); receives complete inside wait(), which blocks
/// until the matching message arrives and stores its payload here.
class Request {
 public:
  Request() = default;

  bool done() const { return done_; }

  /// Moves the received payload out (recv requests, after wait()).
  std::vector<std::byte> take_payload() { return std::move(payload_); }

 private:
  friend class Communicator;
  enum class Kind { kNone, kSend, kRecv };

  Kind kind_ = Kind::kNone;
  int peer_ = -1;
  int tag_ = 0;
  bool done_ = false;
  std::vector<std::byte> payload_;
};

/// Per-rank handle used inside World::run callbacks. All members may be
/// called concurrently from different ranks (each rank owns one Comm).
class Communicator {
 public:
  int rank() const { return rank_; }
  int size() const;

  /// Charges communication time into `clock` (defaults to an internal
  /// clock; the application points this at its per-rank clock so network
  /// time lands in the current component scope).
  ///
  /// Wire time is paid once, by the sender: a send charges it on the
  /// clock timeline's "net" lane — the NIC — starting no earlier than
  /// the issuing lane's cursor, so under named lanes (async-overlap
  /// runs) it proceeds concurrently with compute; on a single-lane
  /// timeline "net" is the host lane. The message carries its arrival
  /// timestamp and the receiver WAITS on that message-arrival event
  /// (cursor = max, no busy time). Collectives are rendezvous points
  /// that synchronise every rank's virtual time to the latest arrival.
  void set_clock(vgpu::SimClock* clock) { clock_ = clock; }
  vgpu::SimClock& clock() { return *clock_; }

  /// Attaches a fault plan consulted on every send (util/fault.hpp):
  /// injected drops retransmit after a timeout, injected delays stretch
  /// the wire leg — both charge extra modeled time (on the net lane)
  /// without ever losing the payload. Null disables injection. The
  /// communicator does not own the plan; the owner must clear it before
  /// the plan dies.
  void set_fault_plan(util::FaultPlan* plan) { fault_plan_ = plan; }
  util::FaultPlan* fault_plan() const { return fault_plan_; }

  /// Blocking buffered send (never deadlocks: delivery is asynchronous).
  void send(int dest, int tag, const void* data, std::size_t bytes);

  /// Blocking receive of the matching (src, tag) message.
  std::vector<std::byte> recv(int src, int tag);

  /// Nonblocking send. The mailbox buffers the payload, so the request is
  /// complete on return; wait() is a no-op kept for MPI shape.
  Request isend(int dest, int tag, const void* data, std::size_t bytes);

  /// Posts a receive for (src, tag). Completion happens in wait(), which
  /// stores the payload in the request. Posting all receives of an
  /// exchange up front before packing/sending is the aggregated transfer
  /// path's pattern.
  Request irecv(int src, int tag);

  /// Completes one request (blocking for receives).
  void wait(Request& request);

  /// Completes every request in the span.
  void wait_all(std::vector<Request>& requests);

  /// Cumulative point-to-point counters for this rank.
  const CommStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CommStats{}; }

  /// Convenience overloads for trivially copyable values.
  template <typename T>
  void send_value(int dest, int tag, const T& value) {
    send(dest, tag, &value, sizeof(T));
  }
  template <typename T>
  T recv_value(int src, int tag) {
    const std::vector<std::byte> buf = recv(src, tag);
    T value{};
    std::memcpy(&value, buf.data(), sizeof(T));
    return value;
  }

  double allreduce(double value, ReduceOp op);
  std::int64_t allreduce(std::int64_t value, ReduceOp op);

  /// Gathers each rank's buffer to all ranks (returned indexed by rank).
  std::vector<std::vector<std::byte>> allgather(const void* data,
                                                std::size_t bytes);

  void barrier();

 private:
  friend class World;
  Communicator(World& world, int rank);

  vgpu::Timeline& timeline() const { return clock_->timeline(); }

  /// Rendezvous: synchronises this rank's virtual time with the slowest
  /// participant of the collective that just completed. `my_time` is
  /// this rank's cursor at arrival.
  void collective_rendezvous(double my_time);

  World* world_;
  int rank_;
  vgpu::SimClock owned_clock_;
  vgpu::SimClock* clock_;
  CommStats stats_;
  util::FaultPlan* fault_plan_ = nullptr;
};

/// A set of simulated ranks sharing a network. Create a World, then call
/// run() with the per-rank body; after run() returns the per-rank comm
/// clocks can be inspected via comm_time(rank).
class World {
 public:
  World(int size, NetworkSpec network);
  ~World();

  int size() const { return size_; }
  const NetworkSpec& network() const { return network_; }

  /// Executes body(comm) on `size` threads, one per rank. Blocks until
  /// all ranks return. Rethrows the first rank exception (after joining).
  void run(const std::function<void(Communicator&)>& body);

 private:
  friend class Communicator;

  struct Message {
    std::vector<std::byte> payload;
    /// Sender-side virtual time at which the last wire byte arrives.
    /// Rank virtual clocks share an origin and are re-synchronised at
    /// every collective, so the receiver may wait on this directly.
    double available_at = 0.0;
  };

  struct Mailbox {
    std::mutex mutex;
    std::condition_variable cv;
    std::map<std::pair<int, int>, std::deque<Message>> queues;  // (src,tag)
  };

  struct CollectiveState {
    std::mutex mutex;
    std::condition_variable cv;
    int arrived = 0;
    std::uint64_t generation = 0;
    double tmax = 0.0;         ///< latest arrival cursor this round
    double tmax_result = 0.0;  ///< rendezvous time of the completed round

    /// Folds one rank's virtual arrival time into the round (the single
    /// home of the rendezvous protocol; call under the mutex, with
    /// `first` true on the round's first arrival).
    void fold_time(bool first, double t) {
      tmax = first ? t : std::max(tmax, t);
    }
    /// Publishes the completed round's rendezvous time (releasing rank,
    /// under the mutex, before notifying).
    void publish_time() { tmax_result = tmax; }

    std::vector<double> dvalues;  ///< per-rank allreduce inputs
    std::int64_t ivalue = 0;
    double dresult = 0.0;
    std::int64_t iresult = 0;
    std::vector<std::vector<std::byte>> gather_in;
    std::shared_ptr<std::vector<std::vector<std::byte>>> gather_out;
  };

  void deliver(int dest, int src, int tag, const void* data, std::size_t bytes,
               double available_at);

  int size_;
  NetworkSpec network_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  CollectiveState collective_;
};

}  // namespace ramr::simmpi
