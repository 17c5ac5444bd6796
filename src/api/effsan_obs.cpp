//===- api/effsan_obs.cpp - C ABI observability entry points --------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `effsan_obs_*` surface (ABI 1.6): thin C shims over the obs
/// layer's Tracer / MetricsRegistry / SiteProfiler, plus the hot-site
/// query that joins a session's profiler counts against its site
/// registry and error accounting.
///
//===----------------------------------------------------------------------===//

#include "api/effsan_internal.h"
#include "obs/Metrics.h"
#include "obs/SiteProfiler.h"
#include "obs/Trace.h"

#include <algorithm>
#include <string>

using namespace effective;

extern "C" {

uint32_t effsan_obs_enable(uint32_t flags) {
  uint32_t Previous = obs::flags();
  uint32_t Wanted = 0;
  if (flags & EFFSAN_OBS_TRACE)
    Wanted |= obs::TraceFlag;
  if (flags & EFFSAN_OBS_METRICS)
    Wanted |= obs::MetricsFlag;
  if (flags & EFFSAN_OBS_PROFILE)
    Wanted |= obs::ProfileFlag;
  obs::setFlags(Wanted);
  return Previous;
}

uint32_t effsan_obs_flags(void) { return obs::flags(); }

int effsan_obs_compiled_in(void) { return 1; }

int effsan_obs_trace_start(uint32_t ring_capacity) {
  size_t Cap = ring_capacity ? ring_capacity
                             : obs::Tracer::DefaultRingCapacity;
  return obs::Tracer::instance().start(Cap) ? 1 : 0;
}

void effsan_obs_trace_stop(void) { obs::Tracer::instance().stop(); }

uint64_t effsan_obs_trace_export(effsan_obs_write_fn write,
                                 void *user_data) {
  if (!write)
    return 0;
  return obs::Tracer::instance().exportChromeJson(write, user_data);
}

uint64_t effsan_obs_trace_dropped(void) {
  return obs::Tracer::instance().dropped();
}

void effsan_obs_metrics_render(effsan_obs_write_fn write,
                               void *user_data) {
  if (!write)
    return;
  std::string Text;
  obs::MetricsRegistry::global().render(Text);
  write(Text.data(), Text.size(), user_data);
}

uint32_t effsan_obs_hot_sites(effsan_session *session,
                              effsan_obs_site *out, uint32_t capacity) {
  if (!session || !out || capacity == 0)
    return 0;
  Runtime &RT = session->S->runtime();
  std::vector<obs::SiteProfile> Top = RT.profiler().topSites(capacity);
  uint32_t N = 0;
  for (const obs::SiteProfile &P : Top) {
    effsan_obs_site &Slot = out[N++];
    Slot.site = P.Site;
    Slot.line = 0;
    Slot.column = 0;
    Slot.reserved_ = 0;
    Slot.hits = P.Hits;
    Slot.misses = P.Misses;
    Slot.error_events = session->S->errorEventsAtSite(P.Site);
    Slot.file = "";
    Slot.function = nullptr;
    if (const SiteInfo *W = RT.siteTables().resolve(P.Site)) {
      Slot.line = W->Line;
      Slot.column = W->Column;
      Slot.file = W->File;
      Slot.function = W->Function[0] != '\0' ? W->Function : nullptr;
    }
  }
  return N;
}

} // extern "C"
