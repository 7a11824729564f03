#include "teardown_hooks.h"

#include <utility>

namespace perfbench {
namespace {
CloudObserver g_on_cloud;
LoadGenObserver g_on_loadgen;
}  // namespace

TeardownObservers::TeardownObservers(CloudObserver on_cloud,
                                     LoadGenObserver on_loadgen) {
  g_on_cloud = std::move(on_cloud);
  g_on_loadgen = std::move(on_loadgen);
}

TeardownObservers::~TeardownObservers() {
  g_on_cloud = nullptr;
  g_on_loadgen = nullptr;
}

}  // namespace perfbench

// The wrapped complete-object destructors (Itanium mangling):
//   picloud::cloud::PiCloud::~PiCloud()
//   picloud::apps::HttpLoadGen::~HttpLoadGen()
// `this` is the only argument, so a free function taking the pointer has
// the same calling convention. The real symbols are weak references: if a
// destructor ever stops being an out-of-line symbol the link still
// succeeds, the wrapper is never called, and fuzz_sweep's teardown check
// (workloads.cc) fails the run instead.
extern "C" {
__attribute__((weak)) void __real__ZN7picloud5cloud7PiCloudD1Ev(
    picloud::cloud::PiCloud* self);
__attribute__((weak)) void __real__ZN7picloud4apps11HttpLoadGenD1Ev(
    picloud::apps::HttpLoadGen* self);

void __wrap__ZN7picloud5cloud7PiCloudD1Ev(picloud::cloud::PiCloud* self) {
  if (perfbench::g_on_cloud) perfbench::g_on_cloud(*self);
  __real__ZN7picloud5cloud7PiCloudD1Ev(self);
}

void __wrap__ZN7picloud4apps11HttpLoadGenD1Ev(
    picloud::apps::HttpLoadGen* self) {
  if (perfbench::g_on_loadgen) perfbench::g_on_loadgen(*self);
  __real__ZN7picloud4apps11HttpLoadGenD1Ev(self);
}
}
