// Tests for capability XML I/O (paper Fig. 7).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lattice/neighborhood.hpp"
#include "motion/rule_xml.hpp"

namespace sb::motion {
namespace {

// The exact extract printed in the paper's Fig. 7.
constexpr const char* kPaperFig7 = R"(<?xml version="1.0" encoding="utf-8"?>
<capabilities>
  <capability name="east1" size="3,3">
    <states>
      2 0 0
      2 4 3
      2 1 1
    </states>
    <motions>
      <motion time="0" from="1,1" to="2,1"/>
    </motions>
  </capability>
  <capability name="carryeast1" size="3,3">
    <states>
      0 0 0
      4 5 3
      2 1 2
    </states>
    <motions>
      <motion time="0" from="1,1" to="2,1"/>
      <motion time="0" from="0,1" to="1,1"/>
    </motions>
  </capability>
</capabilities>)";

TEST(RuleXml, ParsesPaperFig7) {
  const RuleLibrary lib = parse_capabilities(kPaperFig7);
  ASSERT_EQ(lib.size(), 2u);

  const MotionRule* east1 = lib.find("east1");
  ASSERT_NE(east1, nullptr);
  // "east1" is exactly the paper's Eq (1) east-sliding matrix.
  EXPECT_EQ(east1->matrix(), CodeMatrix::from_rows({{2, 0, 0},
                                                    {2, 4, 3},
                                                    {2, 1, 1}}));
  ASSERT_EQ(east1->moves().size(), 1u);
  // from="1,1" is (x=1, y=1): matrix row 1, column 1 - the center.
  EXPECT_EQ(east1->moves()[0].from, (MatrixCoord{1, 1}));
  EXPECT_EQ(east1->moves()[0].to, (MatrixCoord{1, 2}));

  const MotionRule* carry = lib.find("carryeast1");
  ASSERT_NE(carry, nullptr);
  EXPECT_EQ(carry->matrix(), CodeMatrix::from_rows({{0, 0, 0},
                                                    {4, 5, 3},
                                                    {2, 1, 2}}));
  EXPECT_EQ(carry->moves().size(), 2u);
}

TEST(RuleXml, PaperRulesEqualBuiltinCanonicals) {
  const RuleLibrary paper = parse_capabilities(kPaperFig7);
  const RuleLibrary standard = RuleLibrary::standard();
  // Same behaviour under different names.
  EXPECT_EQ(paper.find("east1")->canonical_key(),
            standard.find("slide_ES")->canonical_key());
  EXPECT_EQ(paper.find("carryeast1")->canonical_key(),
            standard.find("carry_ES")->canonical_key());
}

TEST(RuleXml, StandardLibraryRoundTrips) {
  const RuleLibrary original = RuleLibrary::standard();
  const RuleLibrary reparsed =
      parse_capabilities(serialize_capabilities(original));
  ASSERT_EQ(reparsed.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(reparsed.rules()[i].name(), original.rules()[i].name());
    EXPECT_EQ(reparsed.rules()[i].canonical_key(),
              original.rules()[i].canonical_key());
  }
}

TEST(RuleXml, RejectsWrongRoot) {
  EXPECT_THROW(parse_capabilities("<rules/>"), std::runtime_error);
}

TEST(RuleXml, RejectsMissingStates) {
  EXPECT_THROW(parse_capabilities(
                   R"(<capabilities><capability name="x" size="3,3">
                        <motions/></capability></capabilities>)"),
               std::runtime_error);
}

TEST(RuleXml, RejectsSizeMismatch) {
  EXPECT_THROW(parse_capabilities(
                   R"(<capabilities><capability name="x" size="5,5">
                        <states>2 0 0 2 4 3 2 1 1</states>
                        <motions><motion time="0" from="1,1" to="2,1"/></motions>
                      </capability></capabilities>)"),
               std::runtime_error);
}

TEST(RuleXml, RejectsNonSquareSize) {
  EXPECT_THROW(parse_capabilities(
                   R"(<capabilities><capability name="x" size="3,5">
                        <states>2 0 0 2 4 3 2 1 1</states>
                        <motions><motion time="0" from="1,1" to="2,1"/></motions>
                      </capability></capabilities>)"),
               std::runtime_error);
}

TEST(RuleXml, RejectsOutOfRangeMotionCoord) {
  EXPECT_THROW(parse_capabilities(
                   R"(<capabilities><capability name="x" size="3,3">
                        <states>2 0 0 2 4 3 2 1 1</states>
                        <motions><motion time="0" from="1,1" to="3,1"/></motions>
                      </capability></capabilities>)"),
               std::runtime_error);
}

TEST(RuleXml, RejectsInconsistentRule) {
  // Motion list does not match the matrix codes.
  EXPECT_THROW(parse_capabilities(
                   R"(<capabilities><capability name="x" size="3,3">
                        <states>2 0 0 2 4 3 2 1 1</states>
                        <motions><motion time="0" from="0,0" to="1,0"/></motions>
                      </capability></capabilities>)"),
               std::runtime_error);
}

// -- outside input fails with an error, never an abort or a wrapped value --

/// One slide_ES-shaped capability with the given attributes.
std::string capability(const std::string& name, const std::string& size,
                       const std::string& states, const std::string& from,
                       const std::string& to,
                       const std::string& time = "0") {
  return "<capability name=\"" + name + "\" size=\"" + size +
         "\"><states>" + states +
         "</states><motions><motion time=\"" + time + "\" from=\"" + from +
         "\" to=\"" + to + "\"/></motions></capability>";
}

constexpr const char* kSlideEast = "2 0 0 2 4 3 2 1 1";

/// The message parse_capabilities throws for `body`, or "" if it loads.
std::string load_error(const std::string& body) {
  try {
    (void)parse_capabilities("<capabilities>" + body + "</capabilities>");
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

TEST(RuleXml, RejectsDuplicateNameNamingBoth) {
  const std::string error =
      load_error(capability("a", "3,3", kSlideEast, "1,1", "2,1") +
                 capability("a", "3,3", "0 0 2 3 4 2 1 1 2", "1,1", "0,1"));
  EXPECT_NE(error.find("#1 and #2 are both named 'a'"), std::string::npos)
      << error;
}

TEST(RuleXml, RejectsDuplicateBehaviourNamingBoth) {
  const std::string error =
      load_error(capability("a", "3,3", kSlideEast, "1,1", "2,1") +
                 capability("b", "3,3", kSlideEast, "1,1", "2,1"));
  EXPECT_NE(error.find("'b' (#2) repeats the behaviour of 'a' (#1)"),
            std::string::npos)
      << error;
}

TEST(RuleXml, RejectsSizePastInt32) {
  // 4294967299 used to wrap to 3 and load as a 3x3 capability.
  const std::string error = load_error(
      capability("a", "4294967299,4294967299", kSlideEast, "1,1", "2,1"));
  EXPECT_NE(error.find("32-bit"), std::string::npos) << error;
  // The most negative int32 is in range and must not overflow the width
  // check.
  EXPECT_NE(load_error(capability("a", "-2147483648,-2147483648", kSlideEast,
                                  "1,1", "2,1"))
                .find("declares size -2147483648"),
            std::string::npos);
}

TEST(RuleXml, RejectsMotionValuesPastInt32) {
  // 4294967297 used to wrap to 1, turning the move into (1,1) -> (2,1).
  EXPECT_NE(load_error(capability("a", "3,3", kSlideEast, "4294967297,1",
                                  "2,1"))
                .find("32-bit"),
            std::string::npos);
  EXPECT_NE(load_error(capability("a", "3,3", kSlideEast, "1,1",
                                  "2,-4294967295"))
                .find("32-bit"),
            std::string::npos);
  EXPECT_NE(load_error(capability("a", "3,3", kSlideEast, "1,1", "2,1",
                                  "4294967296"))
                .find("bad motion time"),
            std::string::npos);
}

/// slide_ES's codes in the middle of a size x size matrix of don't-cares,
/// as capability XML; its mover sits at the centre.
std::string wide_slide(int32_t size) {
  std::vector<std::vector<std::string>> rows(
      static_cast<size_t>(size), std::vector<std::string>(size, "2"));
  const auto c = static_cast<size_t>(size / 2);
  rows[c - 1][c] = rows[c - 1][c + 1] = "0";
  rows[c][c] = "4";
  rows[c][c + 1] = "3";
  rows[c + 1][c] = rows[c + 1][c + 1] = "1";
  std::string states;
  for (const auto& row : rows) {
    for (const auto& code : row) states += code + " ";
  }
  const std::string center = std::to_string(c);
  const std::string sz = std::to_string(size);
  return capability("wide", sz + "," + sz, states, center + "," + center,
                    std::to_string(c + 1) + "," + center);
}

TEST(RuleXml, RejectsMatrixWiderThanASensingWindow) {
  // A 17x17 matrix needs sensing radius 16; lat::Neighborhood stops at 15,
  // so 15x15 is the widest (odd) matrix a block can use.
  EXPECT_NE(load_error(wide_slide(17)).find("sensing radius 16"),
            std::string::npos);
  const RuleLibrary widest =
      parse_capabilities("<capabilities>" + wide_slide(15) + "</capabilities>");
  EXPECT_EQ(widest.max_rule_size(), 15);
  EXPECT_LE(widest.sensing_radius(), lat::Neighborhood::kMaxRadius);
}

TEST(RuleXml, MissingFileThrows) {
  EXPECT_THROW(load_capabilities_file("/nonexistent.xml"),
               std::runtime_error);
}

TEST(RuleXml, SerializedFormUsesPaperVocabulary) {
  const std::string text = serialize_capabilities(RuleLibrary::standard());
  EXPECT_NE(text.find("<capabilities>"), std::string::npos);
  EXPECT_NE(text.find("<capability name=\"slide_ES\" size=\"3,3\">"),
            std::string::npos);
  EXPECT_NE(text.find("<states>"), std::string::npos);
  EXPECT_NE(text.find("<motion time=\"0\""), std::string::npos);
}

}  // namespace
}  // namespace sb::motion
