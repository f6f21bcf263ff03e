#include "util/config_file.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace chicsim::util {
namespace {

TEST(ConfigFile, ParsesKeyValues) {
  ConfigFile cfg = ConfigFile::parse("num_sites = 30\nbandwidth = 10.5\n");
  EXPECT_EQ(cfg.get("num_sites").value(), "30");
  EXPECT_EQ(cfg.get("bandwidth").value(), "10.5");
}

TEST(ConfigFile, KeysAreCaseInsensitive) {
  ConfigFile cfg = ConfigFile::parse("Num_Sites = 30\n");
  EXPECT_EQ(cfg.get("NUM_SITES").value(), "30");
  EXPECT_EQ(cfg.get("num_sites").value(), "30");
}

TEST(ConfigFile, CommentsAndBlankLinesIgnored) {
  ConfigFile cfg = ConfigFile::parse("# comment\n\na = 1  # trailing\n");
  EXPECT_EQ(cfg.keys().size(), 1u);
  EXPECT_EQ(cfg.get("a").value(), "1");
}

TEST(ConfigFile, MissingKeyReturnsNullopt) {
  ConfigFile cfg = ConfigFile::parse("a = 1\n");
  EXPECT_FALSE(cfg.get("b").has_value());
}

TEST(ConfigFile, MalformedLineThrows) {
  EXPECT_THROW((void)ConfigFile::parse("just-a-token\n"), SimError);
  EXPECT_THROW((void)ConfigFile::parse("= value\n"), SimError);
  EXPECT_THROW((void)ConfigFile::parse("[unterminated\n"), SimError);
  EXPECT_THROW((void)ConfigFile::parse("[section]\na = 1\n"), SimError);
}

TEST(ConfigFile, LastValueWinsOnDuplicates) {
  ConfigFile cfg = ConfigFile::parse("a = 1\na = 2\n");
  EXPECT_EQ(cfg.get("a").value(), "2");
}

TEST(ConfigFile, KeysListsSortedKeys) {
  ConfigFile cfg = ConfigFile::parse("b = 1\na = 2\n");
  auto keys = cfg.keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "a");
  EXPECT_EQ(keys[1], "b");
}

TEST(ConfigFile, LoadMissingFileThrows) {
  EXPECT_THROW((void)ConfigFile::load("/nonexistent/path.cfg"), SimError);
}

}  // namespace
}  // namespace chicsim::util
