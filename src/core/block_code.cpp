#include "core/block_code.hpp"

#include "util/assert.hpp"
#include "util/log.hpp"

namespace sb::core {

SmartBlockCode::SmartBlockCode(lat::BlockId id, bool is_root,
                               const MotionPlanner* planner,
                               const AlgorithmConfig* config,
                               SessionShared* shared)
    : sim::Module(id),
      is_root_(is_root),
      planner_(planner),
      config_(config),
      shared_(shared),
      tabu_(config->tabu_capacity) {
  SB_EXPECTS(planner_ != nullptr && shared_ != nullptr);
}

void SmartBlockCode::on_start() {
  // Derive the per-block RNG from the simulation seed so runs stay
  // reproducible; only the kRandom tie policies consume it.
  if (config_->election_tie == ElectionTie::kRandom ||
      planner_->config().tie == MoveTie::kRandom) {
    tie_rng_ = std::make_unique<Rng>(sim().rng().fork(id().value));
  }
  if (is_root_) {
    SB_ASSERT(position() == config_->input,
              "the Root must sit on the input cell");
    epoch_ = 1;
    start_election();
  }
}

void SmartBlockCode::reset_for_epoch(Epoch epoch) {
  epoch_ = epoch;
  phase_ = Phase::kIdle;
  father_side_.reset();
  pending_acks_ = 0;
  acks_closed_ = false;
  awaiting_contact_.fill(false);  // dead_sides_ persists across epochs
  best_dist_ = kInfiniteDistance;
  best_id_ = lat::kInvalidBlock;
  best_via_.reset();
  advanced_this_epoch_ = false;
}

ActivateMsg SmartBlockCode::make_activate() const {
  ActivateMsg m;
  m.epoch = epoch_;
  m.output = config_->output;
  m.shortest_distance = best_dist_;
  m.id_shortest = best_id_;
  return m;
}

void SmartBlockCode::start_election() {
  SB_ASSERT(is_root_, "only the Root starts elections");
  if (epoch_ > config_->max_iterations) {
    shared_->metrics.blocked = true;
    shared_->metrics.final_epoch = epoch_ - 1;
    log_warn("iteration cap {} reached - reporting blocked",
             config_->max_iterations);
    sim().halt();
    return;
  }
  reset_for_epoch(epoch_);
  phase_ = Phase::kEngaged;
  ++shared_->metrics.elections_started;

  // Eq (6)/(7): the paper initializes the record with the I-to-O distance
  // and the Root's id; the library default is +inf (DESIGN.md note).
  if (config_->paper_eq6_init) {
    best_dist_ = initial_shortest_distance(config_->input, config_->output);
    best_id_ = id();
    best_via_.reset();
  }

  // The Root anchors the first path cell and is never a candidate, so it
  // contributes no report of its own.
  pending_acks_ = broadcast_activates(std::nullopt);
  if (pending_acks_ == 0) {
    // A lone Root cannot build anything (excluded by Assumption 1, but
    // handle it gracefully for robustness).
    finish_aggregation();
  }
}

int SmartBlockCode::broadcast_activates(
    std::optional<lat::Direction> skip) {
  int sent = 0;
  const ActivateMsg activate = make_activate();
  for (lat::Direction d : lat::all_directions()) {
    if (skip && *skip == d) continue;
    if (dead_sides_[static_cast<size_t>(d)]) continue;
    if (!neighbor_table().neighbor(d).valid()) continue;
    send(d, activate);
    if (config_->ack_timeout > 0) {
      awaiting_contact_[static_cast<size_t>(d)] = true;
    }
    ++sent;
  }
  if (sent > 0 && config_->ack_timeout > 0) {
    ack_timer_renewals_ = 0;
    set_timer(config_->ack_timeout, timer_tag(epoch_, kAckTimer));
  }
  return sent;
}

void SmartBlockCode::on_message(lat::Direction from_side,
                                const msg::Message& m) {
  // One byte switch on the envelope tag; unpack copies the body out of
  // the delivery record.
  switch (m.tag()) {
    case ActivateMsg::kTag:
      handle_activate(from_side, m.unpack<ActivateMsg>());
      return;
    case AckMsg::kTag:
      handle_ack(from_side, m.unpack<AckMsg>());
      return;
    case MoveDoneMsg::kTag:
      handle_move_done(from_side, m.unpack<MoveDoneMsg>());
      return;
    case SelectMsg::kTag:
      handle_select(m.unpack<SelectMsg>());
      return;
    case ElectedAckMsg::kTag:
      handle_elected_ack(m.unpack<ElectedAckMsg>());
      return;
    case SonNotifyMsg::kTag:
      handle_son_notify(from_side, m.unpack<SonNotifyMsg>());
      return;
    default:
      SB_UNREACHABLE("unknown message tag ", int{m.tag()});
  }
}

void SmartBlockCode::handle_activate(lat::Direction from_side,
                                     const ActivateMsg& m) {
  if (m.epoch < epoch_) return;  // stale epoch
  if (m.epoch > epoch_) reset_for_epoch(m.epoch);

  if (phase_ != Phase::kIdle) {
    // Already engaged: immediately acknowledge so the sender does not adopt
    // this block as a son. The report is neutral (+inf).
    AckMsg ack;
    ack.epoch = epoch_;
    ack.engaged = false;
    send(from_side, ack);
    return;
  }

  // First activation this epoch: adopt the sender as father and engage.
  phase_ = Phase::kEngaged;
  father_side_ = from_side;

  // Fault mode: tell the father right away that this block engaged (its
  // subtree Ack may take a while; silence must only ever mean death).
  if (config_->ack_timeout > 0) {
    SonNotifyMsg notify;
    notify.epoch = epoch_;
    notify.son = id();
    send(from_side, notify);
  }

  // Evaluate dBO (Eqs 8-10). The Root never evaluates (it anchors I), but a
  // non-root block always does - this is the "distance computation" counted
  // by Remark 2. The decision lands in the block's own memo.
  (void)planner_->evaluate(sim().world(), position(), &tabu_, epoch_,
                           &shared_->metrics, tie_rng_.get(), &memo_);
  // Fold the incoming record and our own distance into the local minimum.
  merge_report(m.shortest_distance, m.id_shortest, std::nullopt);
  if (memo_.decision.eligible()) {
    merge_report(memo_.decision.distance, id(), std::nullopt);
  }

  pending_acks_ = broadcast_activates(from_side);
  if (pending_acks_ == 0) finish_aggregation();
}

void SmartBlockCode::merge_report(int32_t dist, lat::BlockId report_id,
                                  std::optional<lat::Direction> via) {
  if (dist == kInfiniteDistance || !report_id.valid()) return;
  bool better = dist < best_dist_;
  if (dist == best_dist_) {
    switch (config_->election_tie) {
      case ElectionTie::kFirst:
        better = false;
        break;
      case ElectionTie::kLowestId:
        better = report_id < best_id_;
        break;
      case ElectionTie::kRandom:
        better = tie_rng_->next_bool();
        break;
    }
  }
  if (better) {
    best_dist_ = dist;
    best_id_ = report_id;
    best_via_ = via;
  }
}

void SmartBlockCode::handle_ack(lat::Direction from_side, const AckMsg& m) {
  if (m.epoch != epoch_ || acks_closed_ || phase_ != Phase::kEngaged) return;
  awaiting_contact_[static_cast<size_t>(from_side)] = false;
  if (m.engaged) {
    merge_report(m.shortest_distance, m.id_shortest, from_side);
  }
  if (config_->ack_timeout > 0 && pending_acks_ == 0) {
    return;  // a neighbour declared dead turned out to be merely slow
  }
  SB_ASSERT(pending_acks_ > 0, "unexpected Ack at block ", id());
  if (--pending_acks_ == 0) finish_aggregation();
}

void SmartBlockCode::handle_son_notify(lat::Direction from_side,
                                       const SonNotifyMsg& m) {
  if (m.epoch != epoch_) return;
  awaiting_contact_[static_cast<size_t>(from_side)] = false;
}

void SmartBlockCode::finish_aggregation() {
  acks_closed_ = true;
  if (is_root_) {
    root_conclude_election();
    return;
  }
  // Report the subtree minimum to the father and go inactive.
  AckMsg ack;
  ack.epoch = epoch_;
  ack.shortest_distance = best_dist_;
  ack.id_shortest = best_id_;
  ack.engaged = true;
  send(*father_side_, ack);
  phase_ = Phase::kDone;
}

void SmartBlockCode::root_conclude_election() {
  phase_ = Phase::kDone;
  if (best_dist_ == kInfiniteDistance || !best_id_.valid() ||
      best_id_ == id()) {
    // No eligible block this epoch. Tier-2 tabu entries expire with
    // epochs, so retry until a full horizon of consecutive empty elections
    // proves every detour was re-offered and refused; only then is the
    // reconfiguration genuinely blocked. (Lemma 1's step (d) rules this
    // out under the paper's assumptions; it is reported rather than
    // asserted because callers can feed adversarial scenarios.)
    ++empty_elections_;
    if (empty_elections_ <= kTabuHorizon + 1 &&
        epoch_ < config_->max_iterations) {
      log_debug("election {}: no eligible block; retrying ({}/{})", epoch_,
                empty_elections_, kTabuHorizon + 1);
      ++epoch_;
      start_election();
      return;
    }
    shared_->metrics.blocked = true;
    shared_->metrics.final_epoch = epoch_;
    log_warn("election {}: no eligible block after {} retries - "
             "reconfiguration blocked",
             epoch_, empty_elections_ - 1);
    sim().halt();
    return;
  }
  empty_elections_ = 0;
  ++shared_->metrics.elections_completed;
  log_debug("election {}: elected {} at distance {}", epoch_,
            best_id_.value, best_dist_);

  if (best_via_.has_value()) {
    SelectMsg select;
    select.epoch = epoch_;
    select.target = best_id_;
    send(*best_via_, select);
  } else {
    SB_UNREACHABLE("the Root cannot elect itself");
  }
  if (config_->ack_timeout > 0) {
    set_timer(config_->ack_timeout, timer_tag(epoch_, kRootMoveTimer));
  }
}

void SmartBlockCode::handle_select(const SelectMsg& m) {
  if (m.epoch != epoch_) return;
  if (m.target == id()) {
    become_elected();
    return;
  }
  // Route the selection down the subtree that reported the winner.
  if (!best_via_.has_value() || best_id_ != m.target) {
    // Possible only when a fault broke the aggregation invariant.
    SB_ASSERT(config_->ack_timeout > 0,
              "Select routing lost its trail at block ", id());
    log_warn("block {}: cannot route Select for {} (fault recovery pending)",
             id().value, m.target.value);
    return;
  }
  send(*best_via_, m);
}

void SmartBlockCode::become_elected() {
  const MoveDecision& decision = memo_.decision;
  SB_ASSERT(decision.eligible(),
            "elected block ", id(), " has no planned move");
  log_debug("block {} elected in epoch {}; moving {}", id().value, epoch_,
            decision.move->describe());

  // Paper §V.C: the elected block acknowledges to the Root (routed up the
  // father chain), then performs its hop.
  ElectedAckMsg ack;
  ack.epoch = epoch_;
  ack.elected = id();
  if (father_side_.has_value()) {
    send(*father_side_, ack);
  }
  start_motion(*decision.move);
}

void SmartBlockCode::handle_elected_ack(const ElectedAckMsg& m) {
  // The Root only advances on MoveDone, so the ElectedAck ends its trip
  // there with no effect: a rare in-flight loss cannot deadlock the system.
  if (m.epoch != epoch_ || is_root_) return;
  if (father_side_.has_value()) {
    send(*father_side_, m);
  }
}

void SmartBlockCode::on_motion_complete() {
  // The hop of this epoch's elected block has landed.
  const MoveDecision& decision = memo_.decision;
  ++shared_->metrics.hops;
  if (decision.repositioning) ++shared_->metrics.repositioning_hops;
  if (decision.move.has_value()) {
    tabu_.push(decision.move->subject_from(), epoch_);
  }
  const bool reached = position() == config_->output;
  if (shared_->move_listener && decision.move.has_value()) {
    shared_->move_listener(epoch_, id(), *decision.move);
  }

  MoveDoneMsg done;
  done.epoch = epoch_;
  done.mover = id();
  done.reached_output = reached;
  move_done_seen_ = epoch_;
  broadcast(done);
}

void SmartBlockCode::on_motion_rejected() {
  // The elected move went stale: between this block's candidacy (where the
  // move was sensed as legal) and its election, external churn docked a
  // block into a cell the move needs. The block stays put; close the epoch
  // exactly as a landed move would — the MoveDone flood lets the Root
  // advance and re-elect against the fresh world. No hop is counted and no
  // move listener fires, because no block moved.
  MoveDoneMsg done;
  done.epoch = epoch_;
  done.mover = id();
  done.reached_output = false;
  move_done_seen_ = epoch_;
  broadcast(done);
}

void SmartBlockCode::handle_move_done(lat::Direction from_side,
                                      const MoveDoneMsg& m) {
  if (m.epoch <= move_done_seen_) return;  // duplicate or stale
  move_done_seen_ = m.epoch;
  broadcast(m, from_side);  // flood on, except back where it came from

  if (!is_root_) return;
  if (m.epoch != epoch_) return;  // a restart already superseded this epoch
  root_advance(m.reached_output);
}

void SmartBlockCode::root_advance(bool reached_output) {
  if (advanced_this_epoch_) return;
  advanced_this_epoch_ = true;
  if (reached_output) {
    shared_->metrics.complete = true;
    shared_->metrics.final_epoch = epoch_;
    log_info("path complete after {} elections", epoch_);
    sim().halt();
    return;
  }
  ++epoch_;
  start_election();
}

void SmartBlockCode::on_timer(uint64_t tag) {
  if (config_->ack_timeout == 0) return;
  const Epoch tag_epoch = static_cast<Epoch>(tag >> 2);
  const auto kind = static_cast<TimerKind>(tag & 3);
  if (tag_epoch != epoch_) return;  // the epoch moved on; timer is stale

  if (kind == kAckTimer) {
    if (phase_ != Phase::kEngaged || acks_closed_ || pending_acks_ == 0) {
      return;
    }
    // Any side still owing its contact reply (reject-Ack or SonNotify,
    // both bounded by two link latencies) holds a dead neighbour: exclude
    // it now and for all future epochs.
    for (lat::Direction d : lat::all_directions()) {
      if (!awaiting_contact_[static_cast<size_t>(d)]) continue;
      awaiting_contact_[static_cast<size_t>(d)] = false;
      dead_sides_[static_cast<size_t>(d)] = true;
      log_warn("block {}: side {} is silent in epoch {}; declaring the "
               "neighbour dead",
               id().value, to_string(d), epoch_);
      SB_ASSERT(pending_acks_ > 0);
      --pending_acks_;
    }
    if (pending_acks_ == 0) {
      finish_aggregation();
      return;
    }
    // All contacts answered but subtree reports are still outstanding:
    // keep waiting (a live subtree always reports eventually), with a
    // bounded number of renewals as a backstop against a son that died
    // mid-aggregation.
    if (++ack_timer_renewals_ <= kMaxAckTimerRenewals) {
      set_timer(config_->ack_timeout, timer_tag(epoch_, kAckTimer));
    } else {
      log_warn("block {}: forcing aggregation after {} renewals in epoch {}",
               id().value, ack_timer_renewals_, epoch_);
      pending_acks_ = 0;
      finish_aggregation();
    }
    return;
  }
  if (kind == kRootMoveTimer && is_root_ && !advanced_this_epoch_) {
    // The elected block (or the routing path to it) died: restart.
    ++shared_->metrics.election_restarts;
    log_warn("root: election {} stalled; restarting", epoch_);
    ++epoch_;
    start_election();
  }
}

}  // namespace sb::core
