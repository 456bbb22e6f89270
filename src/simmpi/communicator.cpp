#include "simmpi/communicator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <exception>
#include <thread>

#include "util/error.hpp"
#include "util/logger.hpp"

namespace ramr::simmpi {

namespace {

/// Tree depth of a P-rank collective (0 for a single rank).
double tree_depth(int size) {
  return size > 1 ? std::ceil(std::log2(static_cast<double>(size))) : 0.0;
}

}  // namespace

// ---------------------------------------------------------------------------
// Communicator

Communicator::Communicator(World& world, int rank)
    : world_(&world), rank_(rank), clock_(&owned_clock_) {}

int Communicator::size() const { return world_->size(); }

void Communicator::send(int dest, int tag, const void* data, std::size_t bytes) {
  RAMR_REQUIRE(dest >= 0 && dest < size(), "send to invalid rank " << dest);
  double wire = world_->network().message_time(bytes);
  if (fault_plan_ != nullptr) {
    // Wire faults never lose the payload — delivery semantics (and thus
    // physics) stay bit-identical; only the modeled time grows. A drop
    // costs the retransmit timeout plus a second full wire crossing; a
    // delay stretches the crossing by the configured amount.
    if (fault_plan_->should_inject(util::FaultSite::kMessageDrop)) {
      ++stats_.messages_dropped;
      wire += fault_plan_->config().drop_timeout_s +
              world_->network().message_time(bytes);
    }
    if (fault_plan_->should_inject(util::FaultSite::kMessageDelay)) {
      ++stats_.messages_delayed;
      wire += fault_plan_->config().message_delay_s;
    }
  }
  // The NIC drains the message: wire time runs on the network lane,
  // starting no earlier than the issuing lane's cursor (the payload
  // exists only once the pack that produced it is done). The issuing
  // lane does NOT advance — this is what lets a nonblocking send's wire
  // time hide behind compute. On a single-lane timeline "net" is the
  // host lane, so the sender pays the wire time in line.
  vgpu::Timeline& tl = timeline();
  const int net = tl.lane("net");
  double available_at = 0.0;
  {
    vgpu::LaneScope scope(tl, net);
    clock_->charge(wire);
    available_at = tl.now(net);
  }
  ++stats_.messages_sent;
  stats_.bytes_sent += bytes;
  world_->deliver(dest, rank_, tag, data, bytes, available_at);
}

std::vector<std::byte> Communicator::recv(int src, int tag) {
  RAMR_REQUIRE(src >= 0 && src < size(), "recv from invalid rank " << src);
  World::Mailbox& box = *world_->mailboxes_[rank_];
  std::unique_lock<std::mutex> lock(box.mutex);
  const auto key = std::make_pair(src, tag);
  box.cv.wait(lock, [&] {
    const auto it = box.queues.find(key);
    return it != box.queues.end() && !it->second.empty();
  });
  auto it = box.queues.find(key);
  std::vector<std::byte> payload = std::move(it->second.front().payload);
  const double available_at = it->second.front().available_at;
  it->second.pop_front();
  // The sender's network lane already carried the wire time; the
  // receiver WAITS on the message-arrival event (cursor = max, no busy
  // charge). The part of the wait beyond the wire time is a LAGGING
  // SENDER — load imbalance, not failed overlap — and is booked as
  // excluded idle.
  const double wire = world_->network().message_time(payload.size());
  vgpu::Timeline& tl = timeline();
  const double wait = available_at - tl.now();
  tl.advance(tl.active_lane(), available_at);
  if (wait > wire) {
    tl.add_imbalance_idle(wait - wire);
  }
  ++stats_.messages_received;
  stats_.bytes_received += payload.size();
  return payload;
}

Request Communicator::isend(int dest, int tag, const void* data,
                            std::size_t bytes) {
  Request r;
  r.kind_ = Request::Kind::kSend;
  r.peer_ = dest;
  r.tag_ = tag;
  // The mailbox copies the payload, so the caller's buffer is reusable on
  // return and the request completes immediately (MPI buffered-send
  // semantics; wire time is still charged here).
  send(dest, tag, data, bytes);
  r.done_ = true;
  return r;
}

Request Communicator::irecv(int src, int tag) {
  RAMR_REQUIRE(src >= 0 && src < size(), "irecv from invalid rank " << src);
  Request r;
  r.kind_ = Request::Kind::kRecv;
  r.peer_ = src;
  r.tag_ = tag;
  return r;
}

void Communicator::wait(Request& request) {
  if (request.done_ || request.kind_ == Request::Kind::kNone) {
    return;
  }
  if (request.kind_ == Request::Kind::kRecv) {
    request.payload_ = recv(request.peer_, request.tag_);
  }
  request.done_ = true;
}

void Communicator::wait_all(std::vector<Request>& requests) {
  for (Request& r : requests) {
    wait(r);
  }
}

void Communicator::collective_rendezvous(double my_time) {
  timeline().rendezvous(my_time);
}

double Communicator::allreduce(double value, ReduceOp op) {
  World::CollectiveState& c = world_->collective_;
  // Recursive-doubling allreduce: 2*log2(P) message latencies.
  clock_->charge(2.0 * tree_depth(size()) *
                 world_->network().message_time(sizeof(double)));
  const double my_time = timeline().now();
  std::unique_lock<std::mutex> lock(c.mutex);
  const std::uint64_t generation = c.generation;
  c.fold_time(c.arrived == 0, my_time);
  // Each rank deposits its value; the last arrival folds them in RANK
  // order, so a floating-point sum is the same bits whatever order the
  // ranks arrive in.
  if (c.arrived == 0) {
    c.dvalues.assign(static_cast<std::size_t>(size()), 0.0);
  }
  c.dvalues[static_cast<std::size_t>(rank())] = value;
  if (++c.arrived == size()) {
    double result = c.dvalues.front();
    for (std::size_t r = 1; r < c.dvalues.size(); ++r) {
      switch (op) {
        case ReduceOp::kMin: result = std::min(result, c.dvalues[r]); break;
        case ReduceOp::kMax: result = std::max(result, c.dvalues[r]); break;
        case ReduceOp::kSum: result += c.dvalues[r]; break;
      }
    }
    c.dresult = result;
    c.publish_time();
    c.arrived = 0;
    ++c.generation;
    c.cv.notify_all();
    collective_rendezvous(c.tmax_result);
    return c.dresult;
  }
  c.cv.wait(lock, [&] { return c.generation != generation; });
  collective_rendezvous(c.tmax_result);
  return c.dresult;
}

std::int64_t Communicator::allreduce(std::int64_t value, ReduceOp op) {
  World::CollectiveState& c = world_->collective_;
  clock_->charge(2.0 * tree_depth(size()) *
                 world_->network().message_time(sizeof(std::int64_t)));
  const double my_time = timeline().now();
  std::unique_lock<std::mutex> lock(c.mutex);
  const std::uint64_t generation = c.generation;
  c.fold_time(c.arrived == 0, my_time);
  if (c.arrived == 0) {
    c.ivalue = value;
  } else {
    switch (op) {
      case ReduceOp::kMin: c.ivalue = std::min(c.ivalue, value); break;
      case ReduceOp::kMax: c.ivalue = std::max(c.ivalue, value); break;
      case ReduceOp::kSum: c.ivalue += value; break;
    }
  }
  if (++c.arrived == size()) {
    c.iresult = c.ivalue;
    c.publish_time();
    c.arrived = 0;
    ++c.generation;
    c.cv.notify_all();
    collective_rendezvous(c.tmax_result);
    return c.iresult;
  }
  c.cv.wait(lock, [&] { return c.generation != generation; });
  collective_rendezvous(c.tmax_result);
  return c.iresult;
}

std::vector<std::vector<std::byte>> Communicator::allgather(const void* data,
                                                            std::size_t bytes) {
  World::CollectiveState& c = world_->collective_;
  // Ring allgather: (P-1) steps, each moving this rank's contribution.
  if (size() > 1) {
    clock_->charge(static_cast<double>(size() - 1) *
                   world_->network().message_time(bytes));
  }
  const double my_time = timeline().now();
  std::unique_lock<std::mutex> lock(c.mutex);
  const std::uint64_t generation = c.generation;
  c.fold_time(c.arrived == 0, my_time);
  if (c.arrived == 0) {
    c.gather_in.assign(static_cast<std::size_t>(size()), {});
  }
  const auto* p = static_cast<const std::byte*>(data);
  c.gather_in[static_cast<std::size_t>(rank_)].assign(p, p + bytes);
  if (++c.arrived == size()) {
    c.gather_out = std::make_shared<std::vector<std::vector<std::byte>>>(
        std::move(c.gather_in));
    c.publish_time();
    c.arrived = 0;
    ++c.generation;
    c.cv.notify_all();
    collective_rendezvous(c.tmax_result);
    return *c.gather_out;
  }
  auto result_holder = [&] {
    c.cv.wait(lock, [&] { return c.generation != generation; });
    return c.gather_out;
  }();
  collective_rendezvous(c.tmax_result);
  return *result_holder;
}

void Communicator::barrier() {
  World::CollectiveState& c = world_->collective_;
  clock_->charge(2.0 * tree_depth(size()) *
                 world_->network().message_time(0));
  const double my_time = timeline().now();
  std::unique_lock<std::mutex> lock(c.mutex);
  const std::uint64_t generation = c.generation;
  c.fold_time(c.arrived == 0, my_time);
  if (++c.arrived == size()) {
    c.publish_time();
    c.arrived = 0;
    ++c.generation;
    c.cv.notify_all();
    collective_rendezvous(c.tmax_result);
    return;
  }
  c.cv.wait(lock, [&] { return c.generation != generation; });
  collective_rendezvous(c.tmax_result);
}

// ---------------------------------------------------------------------------
// World

World::World(int size, NetworkSpec network)
    : size_(size), network_(std::move(network)) {
  RAMR_REQUIRE(size >= 1, "world size must be positive, got " << size);
  mailboxes_.reserve(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
}

World::~World() = default;

void World::deliver(int dest, int src, int tag, const void* data,
                    std::size_t bytes, double available_at) {
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(dest)];
  Message msg;
  msg.available_at = available_at;
  const auto* p = static_cast<const std::byte*>(data);
  msg.payload.assign(p, p + bytes);
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    box.queues[std::make_pair(src, tag)].push_back(std::move(msg));
  }
  box.cv.notify_all();
}

void World::run(const std::function<void(Communicator&)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(size_));
  std::mutex error_mutex;
  std::exception_ptr first_error;

  for (int r = 0; r < size_; ++r) {
    threads.emplace_back([&, r] {
      util::Logger::set_thread_rank(r);
      try {
        Communicator comm(*this, r);
        body(comm);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) {
          first_error = std::current_exception();
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

}  // namespace ramr::simmpi
