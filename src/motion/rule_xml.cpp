#include "motion/rule_xml.hpp"

#include <cstdint>
#include <optional>

#include "lattice/neighborhood.hpp"
#include "util/fmt.hpp"
#include "util/string_util.hpp"

namespace sb::motion {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error(fmt("capability XML: {}", message));
}

/// Parses an integer that fits int32; nullopt for anything else, so that
/// no value is silently wrapped.
std::optional<int32_t> parse_int32(const std::string& text) {
  const auto value = parse_int(text);
  if (!value || *value < INT32_MIN || *value > INT32_MAX) return std::nullopt;
  return static_cast<int32_t>(*value);
}

/// Parses an "x,y" pair as used by the size/from/to attributes.
std::pair<int32_t, int32_t> parse_pair(const std::string& text,
                                       const std::string& what) {
  const std::vector<std::string> parts = split(text, ',');
  if (parts.size() != 2) fail(fmt("{} must be 'x,y', got '{}'", what, text));
  const auto x = parse_int32(parts[0]);
  const auto y = parse_int32(parts[1]);
  if (!x || !y) {
    fail(fmt("{} must be 'x,y' with 32-bit integers, got '{}'", what, text));
  }
  return {*x, *y};
}

MatrixCoord parse_coord(const std::string& text, int32_t size,
                        const std::string& what) {
  const auto [x, y] = parse_pair(text, what);
  if (x < 0 || x >= size || y < 0 || y >= size) {
    fail(fmt("{} '{}' is outside the {}x{} matrix", what, text, size, size));
  }
  return MatrixCoord{y, x};  // XML is (column, row-from-top)
}

MotionRule parse_capability(const xml::Element& element) {
  const std::string name = element.require_attribute("name");
  const auto [sx, sy] = parse_pair(element.require_attribute("size"), "size");
  if (sx != sy) fail(fmt("capability '{}' must be square", name));
  // Blocks sense size - 1 cells around themselves (sensing_radius), and a
  // sensed window stops at lat::Neighborhood::kMaxRadius.
  if (sx > lat::Neighborhood::kMaxRadius + 1) {
    fail(fmt("capability '{}' is {}x{}: its sensing radius {} exceeds the "
             "maximum of {}",
             name, sx, sx, sx - 1, lat::Neighborhood::kMaxRadius));
  }

  const xml::Element* states = element.first_child("states");
  if (states == nullptr) fail(fmt("capability '{}' lacks <states>", name));
  CodeMatrix matrix = [&] {
    try {
      return CodeMatrix::parse(states->text());
    } catch (const std::runtime_error& error) {
      fail(fmt("capability '{}': {}", name, error.what()));
    }
  }();
  if (matrix.size() != sx) {
    fail(fmt("capability '{}' declares size {} but has a {}x{} matrix", name,
             sx, matrix.size(), matrix.size()));
  }

  const xml::Element* motions = element.first_child("motions");
  if (motions == nullptr) fail(fmt("capability '{}' lacks <motions>", name));
  std::vector<ElementaryMove> moves;
  for (const xml::Element* motion : motions->children_named("motion")) {
    ElementaryMove move;
    const auto time = parse_int32(motion->require_attribute("time"));
    if (!time) fail(fmt("capability '{}': bad motion time", name));
    move.time = *time;
    move.from = parse_coord(motion->require_attribute("from"), matrix.size(),
                            "from");
    move.to =
        parse_coord(motion->require_attribute("to"), matrix.size(), "to");
    moves.push_back(move);
  }

  MotionRule rule(name, std::move(matrix), std::move(moves));
  const auto issues = rule.semantic_issues();
  if (!issues.empty()) {
    fail(fmt("capability '{}' is inconsistent: {}", name, issues.front()));
  }
  return rule;
}

}  // namespace

RuleLibrary load_capabilities(const xml::Element& root) {
  if (root.name() != "capabilities") {
    fail(fmt("root element must be <capabilities>, got <{}>", root.name()));
  }
  RuleLibrary library;
  for (const xml::Element* child : root.children_named("capability")) {
    MotionRule rule = parse_capability(*child);
    // RuleLibrary::add aborts on duplicates, which only code can cause;
    // from a file they are input errors.
    const size_t number = library.size() + 1;
    const auto number_of = [&](const MotionRule* earlier) {
      return static_cast<size_t>(earlier - library.rules().data()) + 1;
    };
    if (const MotionRule* earlier = library.find(rule.name())) {
      fail(fmt("capabilities #{} and #{} are both named '{}'",
               number_of(earlier), number, rule.name()));
    }
    if (const MotionRule* earlier = library.find_behaviour(rule)) {
      fail(fmt("capability '{}' (#{}) repeats the behaviour of '{}' (#{})",
               rule.name(), number, earlier->name(), number_of(earlier)));
    }
    library.add(std::move(rule));
  }
  return library;
}

RuleLibrary parse_capabilities(const std::string& text) {
  const xml::Document doc = xml::parse(text);
  return load_capabilities(*doc.root);
}

RuleLibrary load_capabilities_file(const std::string& path) {
  const xml::Document doc = xml::parse_file(path);
  return load_capabilities(*doc.root);
}

std::string serialize_capabilities(const RuleLibrary& library) {
  xml::Element root("capabilities");
  for (const MotionRule& rule : library.rules()) {
    xml::Element& cap = root.add_child("capability");
    cap.set_attribute("name", rule.name());
    cap.set_attribute("size", fmt("{},{}", rule.size(), rule.size()));
    cap.add_child("states").set_text(rule.matrix().to_text());
    xml::Element& motions = cap.add_child("motions");
    for (const ElementaryMove& move : rule.moves()) {
      xml::Element& motion = motions.add_child("motion");
      motion.set_attribute("time", std::to_string(move.time));
      motion.set_attribute("from",
                           fmt("{},{}", move.from.col, move.from.row));
      motion.set_attribute("to", fmt("{},{}", move.to.col, move.to.row));
    }
  }
  return xml::serialize(root);
}

}  // namespace sb::motion
