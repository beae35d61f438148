#include "pipeline/feed_supervisor.hpp"

#include <algorithm>
#include <utility>

#include "core/state_codec.hpp"
#include "util/errors.hpp"

namespace mlp::pipeline {

const char* to_string(FeedHealth health) {
  switch (health) {
    case FeedHealth::Healthy:
      return "Healthy";
    case FeedHealth::Degraded:
      return "Degraded";
    case FeedHealth::Quarantined:
      return "Quarantined";
    case FeedHealth::Dead:
      return "Dead";
  }
  return "?";
}

std::size_t FeedSupervisor::window_filled() const { return window_count_; }

double FeedSupervisor::malformed_rate() const {
  if (window_count_ < std::max<std::size_t>(1, config_.min_window_records))
    return 0.0;
  return static_cast<double>(window_malformed_) /
         static_cast<double>(window_count_);
}

void FeedSupervisor::transition(FeedHealth to, std::string reason) {
  const FeedHealth from = health_;
  health_ = to;
  ++transition_count_;
  if (transitions_.size() < kMaxRecordedTransitions) {
    transitions_.push_back(
        HealthTransition{from, to, records_seen_, std::move(reason)});
  }
}

FeedSupervisor::Action FeedSupervisor::quarantine(std::string reason) {
  ++times_quarantined_;
  probation_clean_ = 0;
  const bool dies =
      !config_.allow_readmission ||
      (config_.max_quarantines != 0 &&
       times_quarantined_ >= config_.max_quarantines);
  if (dies) {
    transition(FeedHealth::Dead, std::move(reason));
    return Action::Die;
  }
  transition(FeedHealth::Quarantined, std::move(reason));
  return Action::Quarantine;
}

FeedSupervisor::Action FeedSupervisor::evaluate() {
  // Only called from Healthy/Degraded: judge the budgets and settle on
  // the level they support.
  const double rate = malformed_rate();
  if (rate >= config_.quarantine_malformed_rate) {
    return quarantine("malformed rate " + std::to_string(rate) + " over " +
                      std::to_string(window_count_) + " records");
  }
  if (config_.dirty_disconnect_budget != 0 &&
      consecutive_dirty_ >= config_.dirty_disconnect_budget) {
    return quarantine(std::to_string(consecutive_dirty_) +
                      " consecutive dirty disconnects");
  }
  const bool degraded =
      rate >= config_.degraded_malformed_rate ||
      (config_.dirty_disconnect_budget != 0 &&
       consecutive_dirty_ >= std::max<std::size_t>(
                                 1, config_.dirty_disconnect_budget / 2));
  if (degraded && health_ == FeedHealth::Healthy) {
    transition(FeedHealth::Degraded,
               rate >= config_.degraded_malformed_rate
                   ? "malformed rate " + std::to_string(rate)
                   : std::to_string(consecutive_dirty_) +
                         " consecutive dirty disconnects");
  } else if (!degraded && health_ == FeedHealth::Degraded) {
    transition(FeedHealth::Healthy, "budgets recovered");
  }
  return Action::None;
}

FeedSupervisor::Action FeedSupervisor::note_record(bool malformed) {
  if (!config_.enabled || health_ == FeedHealth::Dead) return Action::None;
  ++records_seen_;
  ++records_since_dirty_;
  // A long clean run forgives old flaps: only *consecutive* dirty
  // disconnects spend that budget.
  if (config_.probation_records != 0 &&
      records_since_dirty_ >= config_.probation_records) {
    consecutive_dirty_ = 0;
  }

  if (health_ == FeedHealth::Quarantined) {
    if (malformed) {
      probation_clean_ = 0;
      return Action::None;
    }
    if (config_.probation_records == 0 ||
        ++probation_clean_ < config_.probation_records) {
      return Action::None;
    }
    // Served its probation: wipe the record of past sins so the window
    // judges the recovered feed on fresh evidence only.
    window_.clear();
    window_head_ = 0;
    window_count_ = 0;
    window_malformed_ = 0;
    consecutive_dirty_ = 0;
    probation_clean_ = 0;
    transition(FeedHealth::Healthy,
               "probation served (" +
                   std::to_string(config_.probation_records) +
                   " clean records)");
    return Action::Readmit;
  }

  const std::size_t cap = std::max<std::size_t>(1, config_.malformed_window);
  if (window_.size() < cap) {
    window_.push_back(malformed ? 1 : 0);
    ++window_count_;
    if (malformed) ++window_malformed_;
  } else {
    window_malformed_ -= window_[window_head_];
    window_[window_head_] = malformed ? 1 : 0;
    if (malformed) ++window_malformed_;
    window_head_ = (window_head_ + 1) % cap;
  }
  return evaluate();
}

FeedSupervisor::Action FeedSupervisor::note_disconnect(bool dirty) {
  if (!config_.enabled || health_ == FeedHealth::Dead) return Action::None;
  if (dirty) {
    ++consecutive_dirty_;
    records_since_dirty_ = 0;
  } else {
    consecutive_dirty_ = 0;
  }
  if (health_ == FeedHealth::Quarantined) {
    // A dirty reconnect interrupts probation; a clean one does not.
    if (dirty) probation_clean_ = 0;
    return Action::None;
  }
  return evaluate();
}

FeedSupervisor::Action FeedSupervisor::note_fatal(const std::string& reason) {
  // Deliberately ignores config_.enabled: `enabled` gates the budget
  // JUDGEMENTS, but a fatal failure is a fact, and the close sentinel it
  // publishes is a liveness requirement of the merge frontier.
  if (health_ == FeedHealth::Dead) return Action::None;
  const bool was_merging = merging();
  transition(FeedHealth::Dead, reason);
  // The owner only needs to close queue sources if they are still open.
  return was_merging ? Action::Die : Action::None;
}

FeedSupervisor::Action FeedSupervisor::check_stall(std::uint64_t now_ms) {
  if (!config_.enabled || config_.stall_timeout_ms == 0) return Action::None;
  if (health_ == FeedHealth::Dead || health_ == FeedHealth::Quarantined)
    return Action::None;
  if (now_ms < last_activity_ms_ ||
      now_ms - last_activity_ms_ < config_.stall_timeout_ms) {
    return Action::None;
  }
  // Reset the deadline so a still-stalled feed is not re-quarantined on
  // every poll after readmission.
  last_activity_ms_ = now_ms;
  return quarantine("stalled for " +
                    std::to_string(config_.stall_timeout_ms) + " ms");
}

void FeedSupervisor::serialize_state(ByteWriter& writer) const {
  writer.u8(static_cast<std::uint8_t>(health_));
  // The ring in logical oldest-first order; restore rebuilds it with the
  // head at zero, which future note_record wraps treat identically.
  writer.u32(static_cast<std::uint32_t>(window_count_));
  for (std::size_t i = 0; i < window_count_; ++i)
    writer.u8(window_[(window_head_ + i) % window_.size()]);
  writer.u64(consecutive_dirty_);
  writer.u64(records_since_dirty_);
  writer.u64(probation_clean_);
  writer.u64(records_seen_);
  writer.u64(times_quarantined_);
  writer.u64(transition_count_);
  writer.u32(static_cast<std::uint32_t>(transitions_.size()));
  for (const HealthTransition& transition : transitions_) {
    writer.u8(static_cast<std::uint8_t>(transition.from));
    writer.u8(static_cast<std::uint8_t>(transition.to));
    writer.u64(transition.at_record);
    core::codec::write_string(writer, transition.reason);
  }
}

void FeedSupervisor::restore_state(ByteReader& reader) {
  // Parse into a fresh supervisor and commit by assignment: a ParseError
  // anywhere must leave this one exactly as it was.
  FeedSupervisor image(config_);
  const std::uint8_t health = reader.u8();
  if (health > static_cast<std::uint8_t>(FeedHealth::Dead))
    throw ParseError("checkpoint: feed health " + std::to_string(health));
  image.health_ = static_cast<FeedHealth>(health);
  const std::size_t window_count =
      core::codec::read_count(reader, 1, "supervisor window entry");
  for (std::size_t i = 0; i < window_count; ++i) {
    const std::uint8_t outcome = reader.u8();
    if (outcome > 1)
      throw ParseError("checkpoint: supervisor window outcome " +
                       std::to_string(outcome));
    image.window_malformed_ += outcome;
    image.window_.push_back(outcome);
  }
  image.consecutive_dirty_ = reader.u64();
  image.records_since_dirty_ = reader.u64();
  image.probation_clean_ = reader.u64();
  image.records_seen_ = reader.u64();
  image.times_quarantined_ = reader.u64();
  image.transition_count_ = reader.u64();
  const std::size_t recorded =
      core::codec::read_count(reader, 12, "supervisor transition");
  if (recorded > kMaxRecordedTransitions || recorded > image.transition_count_)
    throw ParseError("checkpoint: supervisor transition log too long");
  for (std::size_t i = 0; i < recorded; ++i) {
    HealthTransition transition;
    const std::uint8_t from = reader.u8();
    const std::uint8_t to = reader.u8();
    if (from > static_cast<std::uint8_t>(FeedHealth::Dead) ||
        to > static_cast<std::uint8_t>(FeedHealth::Dead))
      throw ParseError("checkpoint: supervisor transition health");
    transition.from = static_cast<FeedHealth>(from);
    transition.to = static_cast<FeedHealth>(to);
    transition.at_record = reader.u64();
    transition.reason = core::codec::read_string(reader);
    image.transitions_.push_back(std::move(transition));
  }

  // A resume under a smaller --malformed-window keeps only the newest
  // outcomes (resuming under the SAME config, the only case with replay
  // guarantees, keeps everything).
  auto& window = image.window_;
  const std::size_t cap = std::max<std::size_t>(1, config_.malformed_window);
  if (window.size() > cap) {
    const std::size_t drop = window.size() - cap;
    for (std::size_t i = 0; i < drop; ++i) image.window_malformed_ -= window[i];
    window.erase(window.begin(),
                 window.begin() + static_cast<std::ptrdiff_t>(drop));
  }
  image.window_count_ = window.size();
  // The activity stamp is not part of the image (the owner re-arms it).
  image.last_activity_ms_ = last_activity_ms_;
  *this = std::move(image);
}

}  // namespace mlp::pipeline
