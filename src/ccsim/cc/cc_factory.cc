#include "ccsim/cc/cc_factory.h"

#include "ccsim/cc/bto.h"
#include "ccsim/cc/no_dc.h"
#include "ccsim/cc/optimistic.h"
#include "ccsim/cc/two_phase_locking.h"
#include "ccsim/cc/two_phase_locking_deferred.h"
#include "ccsim/cc/two_phase_locking_timeout.h"
#include "ccsim/cc/wait_die.h"
#include "ccsim/cc/wound_wait.h"
#include "ccsim/sim/check.h"

namespace ccsim::cc {

std::unique_ptr<CcManager> CreateCcManager(config::CcAlgorithm algorithm,
                                           CcContext* ctx, NodeId node) {
  switch (algorithm) {
    case config::CcAlgorithm::kNoDc:
      return std::make_unique<NoDcManager>(ctx, node);
    case config::CcAlgorithm::kTwoPhaseLocking:
      return std::make_unique<TwoPhaseLockingManager>(ctx, node);
    case config::CcAlgorithm::kWoundWait:
      return std::make_unique<WoundWaitManager>(ctx, node);
    case config::CcAlgorithm::kBasicTimestamp:
      return std::make_unique<BtoManager>(ctx, node);
    case config::CcAlgorithm::kOptimistic:
      return std::make_unique<OptimisticManager>(ctx, node);
    case config::CcAlgorithm::kTwoPhaseLockingDeferred:
      return std::make_unique<TwoPhaseLockingDeferredManager>(ctx, node);
    case config::CcAlgorithm::kWaitDie:
      return std::make_unique<WaitDieManager>(ctx, node);
    case config::CcAlgorithm::kTwoPhaseLockingTimeout:
      return std::make_unique<TwoPhaseLockingTimeoutManager>(ctx, node);
  }
  CCSIM_CHECK_MSG(false, "unknown concurrency control algorithm");
  return nullptr;
}

}  // namespace ccsim::cc
