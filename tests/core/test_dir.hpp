#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace anacin::core {

/// A scratch directory owned by the running test: `<gtest temp dir>/
/// <suite>.<test>.<pid>`. ctest runs every test as its own process in one
/// working directory, so a shared relative path would let one test's
/// cleanup delete another's files mid-write. Removed on destruction.
class OwnTestDir {
 public:
  OwnTestDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = std::filesystem::path(::testing::TempDir()) /
            (std::string(info->test_suite_name()) + "." + info->name() + "." +
             std::to_string(::getpid()));
    std::filesystem::remove_all(root_);
  }
  ~OwnTestDir() {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }
  OwnTestDir(const OwnTestDir&) = delete;
  OwnTestDir& operator=(const OwnTestDir&) = delete;

  /// `name` under the directory, as a string path.
  std::string path(const std::string& name) const {
    return (root_ / name).string();
  }

 private:
  std::filesystem::path root_;
};

}  // namespace anacin::core
