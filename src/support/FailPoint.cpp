//===- support/FailPoint.cpp ----------------------------------------------===//

#include "support/FailPoint.h"

#include "support/Status.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <set>
#include <sstream>

using namespace pinj;

namespace {

// Keep this catalog in sync with the hit() calls across the pipeline and
// with the fail-point table in DESIGN.md ("Failure model"). Sites under
// the "service." prefix fire at the compilation daemon's own boundaries
// (service/Daemon.cpp, service/Admission.cpp) rather than inside
// runOperator; the pipeline fail-point sweep filters them out.
const char *const Sites[] = {
    "lp.simplex",       // solveLp entry (every relaxation).
    "lp.ilp",           // solveIlp entry (every branch-and-bound run).
    "poly.farkas",      // addFarkasNonNegative (constraint elimination).
    "sched.schedule",   // scheduleKernel entry (whole construction).
    "influence.tree",   // buildInfluenceTree entry.
    "codegen.map",      // mapToGpu entry (block/thread mapping).
    "codegen.vectorize",// finalizeVectorMarks entry.
    "gpusim.simulate",  // GpuAnalyticTarget::simulate entry.
    "exec.interpret",   // scheduleIsSemanticallyEqual entry (validation).
    "baselines.tvm",    // simulateTvmProxy entry.
    "service.parse",    // Daemon request-line parse boundary.
    "service.queue",    // AdmissionQueue::admit insert boundary.
    "service.respond",  // Daemon response write boundary.
    "service.drain",    // Daemon drain entry.
};

// The registry is shared between the daemon's worker threads and the
// chaos harness, which activates and clears sites while requests are in
// flight — so the set is mutex-guarded, with a relaxed atomic count
// keeping the nothing-active fast path lock-free.
struct Registry {
  std::mutex Mu;
  std::set<std::string> Active;
  std::atomic<std::size_t> ActiveCount{0};

  Registry() {
    if (const char *Env = std::getenv("POLYINJECT_FAILPOINTS")) {
      std::stringstream In(Env);
      std::string Name;
      while (std::getline(In, Name, ','))
        if (!Name.empty())
          Active.insert(Name);
    }
    ActiveCount.store(Active.size(), std::memory_order_relaxed);
  }
};

Registry &registry() {
  static Registry R;
  return R;
}

} // namespace

const std::vector<const char *> &pinj::failpoint::allSites() {
  static const std::vector<const char *> All(std::begin(Sites),
                                             std::end(Sites));
  return All;
}

bool pinj::failpoint::isActive(const char *Name) {
  Registry &R = registry();
  if (R.ActiveCount.load(std::memory_order_relaxed) == 0)
    return false;
  std::lock_guard<std::mutex> Lock(R.Mu);
  return R.Active.count(Name) != 0;
}

void pinj::failpoint::hit(const char *Name) {
  if (isActive(Name))
    raiseError(StatusCode::InjectedFault, Name, "fail-point fired");
}

void pinj::failpoint::activate(const std::string &Name) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mu);
  R.Active.insert(Name);
  R.ActiveCount.store(R.Active.size(), std::memory_order_relaxed);
}

void pinj::failpoint::deactivate(const std::string &Name) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mu);
  R.Active.erase(Name);
  R.ActiveCount.store(R.Active.size(), std::memory_order_relaxed);
}

void pinj::failpoint::clearAll() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mu);
  R.Active.clear();
  R.ActiveCount.store(0, std::memory_order_relaxed);
}
