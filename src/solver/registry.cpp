#include "solver/registry.hpp"

#include "common/error.hpp"
#include "common/half.hpp"
#include "common/strings.hpp"
#include "dd/half_precision.hpp"
#include "dd/schwarz.hpp"
#include "mlevel/hierarchy.hpp"
#include "solver/config.hpp"

namespace frosch {

void PreconditionerRegistry::add(const std::string& name,
                                 PreconditionerFactory factory) {
  factories_[name] = std::move(factory);
}

std::unique_ptr<dd::Preconditioner<double>> PreconditionerRegistry::create(
    const std::string& name, const SolverConfig& cfg,
    const dd::Decomposition& decomp) const {
  auto it = factories_.find(name);
  FROSCH_CHECK(it != factories_.end(),
               "PreconditionerRegistry: unknown preconditioner '"
                   << name << "' (registered: " << names_joined() << ")");
  return it->second(cfg, decomp);
}

bool PreconditionerRegistry::has(const std::string& name) const {
  return factories_.count(name) != 0;
}

std::vector<std::string> PreconditionerRegistry::names() const {
  std::vector<std::string> out;
  for (const auto& [n, f] : factories_) out.push_back(n);
  return out;
}

std::string PreconditionerRegistry::names_joined() const {
  return join(names());
}

PreconditionerRegistry& preconditioner_registry() {
  static PreconditionerRegistry registry = [] {
    PreconditionerRegistry r;
    // Every schwarz variant delegates its coarse problem to a
    // mlevel::CoarseHierarchy (in the variant's internal precision).  At
    // the default configuration (levels=2, coarse_ranks=root) the
    // hierarchy is one terminal dd::DirectCoarseSolver, the solver a bare
    // SchwarzPreconditioner installs itself.
    r.add("schwarz", [](const SolverConfig& cfg, const dd::Decomposition& d) {
      auto p = std::make_unique<dd::SchwarzPreconditioner<double>>(cfg.schwarz,
                                                                   d);
      p->set_coarse_solver(std::make_unique<mlevel::CoarseHierarchy<double>>(
          cfg.schwarz, d.num_parts));
      return p;
    });
    r.add("schwarz-float",
          [](const SolverConfig& cfg, const dd::Decomposition& d) {
            auto p = std::make_unique<
                dd::HalfPrecisionPreconditioner<double, float>>(cfg.schwarz,
                                                                d);
            p->set_coarse_solver(
                std::make_unique<mlevel::CoarseHierarchy<float>>(cfg.schwarz,
                                                                 d.num_parts));
            return p;
          });
    r.add("schwarz-half",
          [](const SolverConfig& cfg, const dd::Decomposition& d) {
            auto p = std::make_unique<
                dd::HalfPrecisionPreconditioner<double, half>>(cfg.schwarz, d);
            p->set_coarse_solver(
                std::make_unique<mlevel::CoarseHierarchy<half>>(cfg.schwarz,
                                                                d.num_parts));
            return p;
          });
    r.add("none", [](const SolverConfig&, const dd::Decomposition&) {
      return std::unique_ptr<dd::Preconditioner<double>>();
    });
    return r;
  }();
  return registry;
}

}  // namespace frosch
