#include "dcnas/serve/registry.hpp"

#include <limits>
#include <utility>

#include "dcnas/analysis/plan_verifier.hpp"
#include "dcnas/analysis/verifier.hpp"
#include "dcnas/common/error.hpp"
#include "dcnas/obs/metrics.hpp"
#include "dcnas/obs/trace.hpp"
#include "dcnas/plan/compiler.hpp"

namespace dcnas::serve {

ModelRegistry::ModelRegistry(std::size_t capacity) : capacity_(capacity) {}

int ModelRegistry::register_model(const std::string& name,
                                  graph::GraphExecutor exec) {
  DCNAS_CHECK(!name.empty(), "model name must be non-empty");
  // A registered model is served to every worker; refuse anything the
  // verifier rejects, even if the executor was constructed in-process.
  analysis::verify_or_throw(exec.graph(),
                            "ModelRegistry refuses model '" + name + "'");
  auto shared = std::make_shared<const graph::GraphExecutor>(std::move(exec));

  // Compile the plan from exactly this executor's weights *outside* the
  // lock (compilation copies every weight tensor), then install both in one
  // critical section: no interleaving can pair this executor with another
  // version's plan, and serving is never blocked on compilation. Even a
  // plan this registry compiled itself is re-verified before install —
  // serving never runs a plan the PlanVerifier has not passed.
  std::shared_ptr<const plan::PlanExecutor> compiled;
  {
    obs::Span span("serve", "serve.registry.plan_compile");
    if (span.armed()) span.arg("model", name);
    static obs::Counter& compiles = obs::MetricsRegistry::global().counter(
        "serve.registry.plan_compile.count");
    plan::CompiledPlan plan = plan::compile_plan(*shared);
    analysis::verify_plan_or_throw(
        plan, *shared, "ModelRegistry refuses plan for '" + name + "'");
    compiled = std::make_shared<const plan::PlanExecutor>(std::move(plan));
    compiles.add(1);
  }
  return install(name, std::move(shared), std::move(compiled));
}

int ModelRegistry::register_model(const std::string& name,
                                  graph::GraphExecutor exec,
                                  plan::CompiledPlan plan) {
  DCNAS_CHECK(!name.empty(), "model name must be non-empty");
  analysis::verify_or_throw(exec.graph(),
                            "ModelRegistry refuses model '" + name + "'");
  auto shared = std::make_shared<const graph::GraphExecutor>(std::move(exec));

  // The untrusted-artifact trust boundary: statically verify the supplied
  // plan against this executor before constructing anything that would run
  // it (PlanExecutor's constructor already executes arena checks, so the
  // verifier must come first to report structured rule ids instead).
  static obs::Counter& rejects = obs::MetricsRegistry::global().counter(
      "serve.registry.plan_reject.count");
  try {
    analysis::verify_plan_or_throw(
        plan, *shared, "ModelRegistry refuses plan for '" + name + "'");
  } catch (const InvalidArgument&) {
    rejects.add(1);
    throw;
  }
  auto compiled =
      std::make_shared<const plan::PlanExecutor>(std::move(plan));
  return install(name, std::move(shared), std::move(compiled));
}

int ModelRegistry::install(
    const std::string& name,
    std::shared_ptr<const graph::GraphExecutor> exec,
    std::shared_ptr<const plan::PlanExecutor> plan) {
  MutexLock lock(mu_);
  const int version = ++versions_[name];
  Entry& e = entries_[name];
  e.exec = std::move(exec);
  e.plan = std::move(plan);
  e.version = version;
  e.last_used = ++tick_;
  if (capacity_ > 0 && entries_.size() > capacity_) evict_lru_locked(name);
  return version;
}

int ModelRegistry::load(const std::string& name, const std::string& path) {
  return register_model(name, graph::load_model(path));
}

std::shared_ptr<const graph::GraphExecutor> ModelRegistry::get(
    const std::string& name) const {
  MutexLock lock(mu_);
  const auto it = entries_.find(name);
  DCNAS_CHECK(it != entries_.end(), "model not registered: " + name);
  it->second.last_used = ++tick_;
  return it->second.exec;
}

ModelSnapshot ModelRegistry::snapshot(const std::string& name) const {
  MutexLock lock(mu_);
  const auto it = entries_.find(name);
  DCNAS_CHECK(it != entries_.end(), "model not registered: " + name);
  it->second.last_used = ++tick_;
  ModelSnapshot snap;
  snap.exec = it->second.exec;
  snap.plan = it->second.plan;
  snap.version = it->second.version;
  return snap;
}

bool ModelRegistry::contains(const std::string& name) const {
  MutexLock lock(mu_);
  return entries_.count(name) > 0;
}

bool ModelRegistry::evict(const std::string& name) {
  MutexLock lock(mu_);
  return entries_.erase(name) > 0;
}

int ModelRegistry::version(const std::string& name) const {
  MutexLock lock(mu_);
  const auto it = versions_.find(name);
  return it == versions_.end() ? 0 : it->second;
}

std::vector<std::string> ModelRegistry::names() const {
  MutexLock lock(mu_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, _] : entries_) out.push_back(name);
  return out;
}

std::size_t ModelRegistry::size() const {
  MutexLock lock(mu_);
  return entries_.size();
}

void ModelRegistry::evict_lru_locked(const std::string& keep) {
  auto victim = entries_.end();
  std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->first == keep) continue;
    if (it->second.last_used < oldest) {
      oldest = it->second.last_used;
      victim = it;
    }
  }
  // Erasing the Entry drops the executor and its derived plan together;
  // in-flight holders of either keep them alive via shared ownership.
  if (victim != entries_.end()) entries_.erase(victim);
}

}  // namespace dcnas::serve
