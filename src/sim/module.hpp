#pragma once
// Module: the per-block program (VisibleSim calls this a "BlockCode").
//
// A module interacts with the world exclusively through the protected
// services below — sending messages across lateral contacts, timers,
// sensing, and requesting motions. Subclasses implement the on_* hooks.

#include <memory>
#include <optional>

#include "lattice/block_id.hpp"
#include "lattice/direction.hpp"
#include "lattice/neighborhood.hpp"
#include "lattice/vec2.hpp"
#include "motion/apply.hpp"
#include "msg/message.hpp"
#include "msg/neighbor_table.hpp"
#include "sim/time.hpp"

namespace sb::sim {

class Simulator;

class Module {
 public:
  explicit Module(lat::BlockId id) : id_(id) {}
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  [[nodiscard]] lat::BlockId id() const { return id_; }
  /// Liveness is the world's state-tag column (lat::WorldState), not a
  /// field on the module: the simulator stamps kAlive at registration and
  /// kDead on kill_module, and everyone — including the module itself —
  /// reads the same column.
  [[nodiscard]] bool alive() const;

  [[nodiscard]] const msg::NeighborTable& neighbor_table() const {
    return neighbors_;
  }

  // -- hooks (called by the simulator) -------------------------------------

  /// Called once when the simulation starts.
  virtual void on_start() {}

  /// A message arrived on the given side (the side of *this* block facing
  /// the sender). Receivers switch on m.tag() and m.unpack<T>() the body.
  virtual void on_message(lat::Direction from_side, const msg::Message& m) = 0;

  /// A timer set with set_timer() fired.
  virtual void on_timer(uint64_t tag) { (void)tag; }

  /// A motion this module requested has completed; position() is updated.
  virtual void on_motion_complete() {}

  /// A motion this module requested was refused because it is no longer
  /// physically possible (another block docked into a cell the move needs —
  /// only reachable under external churn). The block has not moved; the
  /// module must recover at the protocol level or the run deadlocks.
  virtual void on_motion_rejected() {}

  /// The block attached on `side` changed (kInvalidBlock = detached).
  virtual void on_neighbor_change(lat::Direction side, lat::BlockId now) {
    (void)side;
    (void)now;
  }

 protected:
  // -- services (valid once the module is registered) ----------------------

  [[nodiscard]] Simulator& sim() const;

  /// Current physical position (the block's position register).
  [[nodiscard]] lat::Vec2 position() const;

  /// Sends across the lateral contact on `side`; silently dropped (and
  /// counted in SimStats) when no neighbor is attached there.
  template <msg::Body M>
  void send(lat::Direction side, M message) {
    send_envelope(side, msg::Message::pack(message));
  }

  /// Sends a copy of `message` to every attached neighbor, except the one
  /// on `skip` if given.
  template <msg::Body M>
  void broadcast(M message,
                 std::optional<lat::Direction> skip = std::nullopt) {
    broadcast_envelope(msg::Message::pack(message), skip);
  }

  /// Schedules on_timer(tag) after `delay` ticks.
  void set_timer(Ticks delay, uint64_t tag);

  /// Requests execution of a motion (this module must be the subject).
  /// on_motion_complete() fires when it lands.
  void start_motion(const motion::RuleApplication& app);

  /// Sensing window centred on this block (radius from the rule library).
  [[nodiscard]] lat::Neighborhood sense() const;

 private:
  friend class Simulator;

  void send_envelope(lat::Direction side, const msg::Message& envelope);
  void broadcast_envelope(const msg::Message& envelope,
                          std::optional<lat::Direction> skip);

  lat::BlockId id_;
  Simulator* host_ = nullptr;
  msg::NeighborTable neighbors_;
};

}  // namespace sb::sim
