#include "lattice/world_state.hpp"

namespace sb::lat {

WorldState::WorldState(int32_t width, int32_t height)
    : width_(width), height_(height) {
  SB_EXPECTS(width > 0 && height > 0,
             "world dimensions must be positive, got ", width, "x", height);
  occ_.assign(
      static_cast<size_t>(width_ + 2) * static_cast<size_t>(height_ + 2), 0);
}

void WorldState::ensure_id(BlockId id) {
  SB_EXPECTS(id.valid(), "invalid block id in a WorldState column write");
  if (id.value < x_.size()) return;
  const size_t n = static_cast<size_t>(id.value) + 1;
  x_.resize(n, kUnplacedCoord);
  y_.resize(n, kUnplacedCoord);
  tag_.resize(n, static_cast<uint8_t>(ModuleTag::kUnregistered));
}

}  // namespace sb::lat
