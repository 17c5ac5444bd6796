//===- api/effsan_resilience.cpp - C ABI fault-injection entry points -----===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The effsan_fault_* functions of the stable C ABI (api/effsan.h,
/// since 1.9): thin translation onto the process-wide
/// resilience::FaultRegistry. All functions are total — out-of-range
/// point indices return 0/NULL rather than trapping.
///
//===----------------------------------------------------------------------===//

#include "api/effsan.h"
#include "resilience/Fault.h"

using namespace effective;
using resilience::FaultPoint;
using resilience::FaultRegistry;
using resilience::NumFaultPointValues;

extern "C" {

int effsan_fault_compiled_in(void) { return 1; }

void effsan_fault_arm(uint64_t seed) {
  FaultRegistry::instance().arm(seed);
}

void effsan_fault_disarm(void) { FaultRegistry::instance().disarm(); }

int effsan_fault_armed(void) {
  return FaultRegistry::instance().armed() ? 1 : 0;
}

uint64_t effsan_fault_seed(void) { return FaultRegistry::instance().seed(); }

int effsan_fault_configure(const char *spec) {
  if (!spec)
    return 0;
  return FaultRegistry::instance().configureFromSpec(spec) ? 1 : 0;
}

uint32_t effsan_fault_num_points(void) { return NumFaultPointValues; }

const char *effsan_fault_point_name(uint32_t point) {
  if (point >= NumFaultPointValues)
    return nullptr;
  return FaultRegistry::pointName(static_cast<FaultPoint>(point));
}

uint64_t effsan_fault_evaluations(uint32_t point) {
  if (point >= NumFaultPointValues)
    return 0;
  return FaultRegistry::instance().evaluations(
      static_cast<FaultPoint>(point));
}

uint64_t effsan_fault_fires(uint32_t point) {
  if (point >= NumFaultPointValues)
    return 0;
  return FaultRegistry::instance().fires(static_cast<FaultPoint>(point));
}

} // extern "C"
