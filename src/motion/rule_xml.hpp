#pragma once
// Capability XML I/O — the paper's Fig. 7 vocabulary:
//
//   <capabilities>
//     <capability name="east1" size="3,3">
//       <states>
//         2 0 0
//         2 4 3
//         2 1 1
//       </states>
//       <motions>
//         <motion time="0" from="1,1" to="2,1"/>
//       </motions>
//     </capability>
//   </capabilities>
//
// Motion coordinates are "x,y" with x the column and y the row counted from
// the top (north) row, exactly as in the paper's listing.

#include <string>

#include "motion/rule_library.hpp"
#include "xml/xml.hpp"

namespace sb::motion {

/// Parses a <capabilities> element into a rule library. Throws
/// std::runtime_error on vocabulary violations, numbers outside int32,
/// matrices wider than a block can sense (lat::Neighborhood::kMaxRadius),
/// and a name or behaviour that an earlier capability already has (and
/// propagates xml::ParseError from the underlying parser when given text);
/// it never aborts on file content.
[[nodiscard]] RuleLibrary load_capabilities(const xml::Element& root);

/// Parses capability XML text.
[[nodiscard]] RuleLibrary parse_capabilities(const std::string& text);

/// Loads a capability file.
[[nodiscard]] RuleLibrary load_capabilities_file(const std::string& path);

/// Serializes a library to capability XML (round-trips through
/// parse_capabilities, preserving rule order and names).
[[nodiscard]] std::string serialize_capabilities(const RuleLibrary& library);

}  // namespace sb::motion
