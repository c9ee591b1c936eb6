#include "net/red.hpp"

#include <algorithm>
#include <cmath>

#include "sim/scheduler.hpp"
#include "util/assert.hpp"

namespace pdos {

RedParams RedParams::paper_testbed(std::size_t buffer_packets) {
  RedParams p;
  p.capacity = buffer_packets;
  p.min_th = 0.2 * static_cast<double>(buffer_packets);
  p.max_th = 0.8 * static_cast<double>(buffer_packets);
  p.wq = 0.002;
  p.max_p = 0.1;
  p.gentle = true;
  return p;
}

void RedParams::validate() const {
  PDOS_REQUIRE(capacity > 0, "RED: capacity must be > 0");
  PDOS_REQUIRE(min_th > 0.0 && min_th < max_th,
               "RED: need 0 < min_th < max_th");
  PDOS_REQUIRE(wq > 0.0 && wq <= 1.0, "RED: wq must be in (0, 1]");
  PDOS_REQUIRE(max_p > 0.0 && max_p <= 1.0, "RED: max_p must be in (0, 1]");
}

RedQueue::RedQueue(RedParams params, Rng rng,
                   std::pmr::memory_resource* memory)
    : params_(params), rng_(rng), buffer_(memory) {
  params_.validate();
}

void RedQueue::bind(const Scheduler* clock, BitRate service_rate,
                    Bytes mean_packet_bytes) {
  clock_ = clock;
  if (service_rate > 0.0 && mean_packet_bytes > 0) {
    mean_service_time_ =
        static_cast<double>(mean_packet_bytes) * 8.0 / service_rate;
  }
}

void RedQueue::update_avg() {
  const double q = static_cast<double>(buffer_.size());
  if (!idle_ || q > 0.0) {
    avg_ = (1.0 - params_.wq) * avg_ + params_.wq * q;
    return;
  }
  // Arrival to an idle queue: decay avg as if m average packets had been
  // transmitted during the idle interval (ns-2's estimator).
  double m = 0.0;
  if (clock_ != nullptr && mean_service_time_ > 0.0) {
    m = std::max(0.0, (clock_->now() - idle_start_) / mean_service_time_);
  }
  avg_ *= std::pow(1.0 - params_.wq, m);
  avg_ = (1.0 - params_.wq) * avg_;  // then count this arrival (q == 0)
}

bool RedQueue::should_early_drop() {
  double pb;
  if (avg_ < params_.min_th) {
    count_ = -1;
    return false;
  }
  if (avg_ < params_.max_th) {
    pb = params_.max_p * (avg_ - params_.min_th) /
         (params_.max_th - params_.min_th);
  } else if (params_.gentle && avg_ < 2.0 * params_.max_th) {
    pb = params_.max_p +
         (1.0 - params_.max_p) * (avg_ - params_.max_th) / params_.max_th;
  } else {
    // avg beyond the (gentle) ramp: drop everything.
    count_ = 0;
    return true;
  }
  ++count_;
  // Spread drops uniformly: pa = pb / (1 - count * pb), clamped.
  double pa = pb;
  const double denom = 1.0 - static_cast<double>(count_) * pb;
  if (denom <= 0.0) {
    pa = 1.0;
  } else {
    pa = std::min(1.0, pb / denom);
  }
  if (rng_.bernoulli(pa)) {
    count_ = 0;
    return true;
  }
  return false;
}

bool RedQueue::enqueue(Packet pkt) {
  update_avg();
  idle_ = false;

  if (should_early_drop()) {
    ++early_drops_;
    stats_.note_drop(pkt);
    return false;
  }
  if (buffer_.size() >= params_.capacity) {
    ++forced_drops_;
    count_ = 0;
    stats_.note_drop(pkt);
    return false;
  }
  buffer_.push_back(std::move(pkt));
  ++stats_.enqueued;
  return true;
}

Packet RedQueue::dequeue_nonempty() {
  return dequeue_nonempty_at(clock_ != nullptr ? clock_->now() : 0.0);
}

Packet RedQueue::dequeue_nonempty_at(Time service_start) {
  Packet pkt = buffer_.pop_front();
  ++stats_.dequeued;
  if (buffer_.empty()) {
    // The idle interval the next arrival decays over starts when service of
    // the last buffered packet begins, which is the time the caller hands
    // in — under lazy fusion the wall clock has already moved past it.
    idle_ = true;
    idle_start_ = service_start;
  }
  return pkt;
}

}  // namespace pdos
