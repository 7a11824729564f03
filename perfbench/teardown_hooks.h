// End-of-life observers for objects the benchmark cannot reach while they
// live. testing::run_scenario() constructs its PiCloud and load generators
// internally and destroys them before it returns; the benchmark's link wraps
// their destructors (CMakeLists.txt) so an installed observer sees each
// object, fully intact, just before it is destroyed. Observers only read
// public accessors. With none installed the wrappers cost one branch.
#pragma once

#include <functional>

#include "apps/loadgen.h"
#include "cloud/cloud.h"

namespace perfbench {

using CloudObserver = std::function<void(picloud::cloud::PiCloud&)>;
using LoadGenObserver = std::function<void(const picloud::apps::HttpLoadGen&)>;

// Installs the observers for the guard's lifetime (single-threaded use).
class TeardownObservers {
 public:
  TeardownObservers(CloudObserver on_cloud, LoadGenObserver on_loadgen);
  ~TeardownObservers();
  TeardownObservers(const TeardownObservers&) = delete;
  TeardownObservers& operator=(const TeardownObservers&) = delete;
};

}  // namespace perfbench
