#pragma once
// Wire serialization for the distributed sweep backend (src/dist).
//
// RunRow results and the SweepCliOptions grid description travel between
// coordinator and workers as JSON payloads inside length-prefixed frames
// (dist/protocol.hpp). Rows are written by encode_row(row, RowFormat::kWire)
// (runner/report.hpp). Round trips are value-exact: 64-bit integers go as
// hex strings (doubles cannot hold them), and doubles rely on util/json's
// %.17g writer + correctly-rounded parser, so a merged report is built from
// bit-identical values no matter how many hops a row took.

#include "runner/cli_options.hpp"
#include "runner/report.hpp"
#include "util/json.hpp"

namespace sb::runner {

/// Inverse of encode_row(row, RowFormat::kWire): reads every field of
/// visit_row_fields by key. Throws std::runtime_error naming the field on
/// a missing, mistyped or out-of-range field.
[[nodiscard]] RunRow row_from_json(const util::JsonValue& json);

/// Grid-description encoding: two processes that exchange this reconstruct
/// identical RunSpec lists via make_sweep_grid + expand.
[[nodiscard]] util::JsonValue options_to_json(const SweepCliOptions& options);

/// Inverse of options_to_json. Throws std::runtime_error on malformed input
/// and on options parse_sweep_flags would refuse (validate_sweep_options).
[[nodiscard]] SweepCliOptions options_from_json(const util::JsonValue& json);

}  // namespace sb::runner
