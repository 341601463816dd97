// Per-process test workspaces. TestDir("name") is
// /tmp/timeunion_test/<pid>/name, so two processes of one test binary (a
// `ctest --repeat` loop beside a parallel full run) never delete each
// other's files. The pid directory is removed when the process exits
// normally; forked crash children _Exit and leave it to their parent.
#pragma once

#include <unistd.h>

#include <cstdlib>
#include <string>

#include "util/mmap_file.h"

inline std::string TestDirRoot() {
  return "/tmp/timeunion_test/" + std::to_string(::getpid());
}

inline std::string TestDir(const std::string& name) {
  static const std::string root = [] {
    std::atexit([] { tu::RemoveDirRecursive(TestDirRoot()); });
    return TestDirRoot();
  }();
  return root + "/" + name;
}
