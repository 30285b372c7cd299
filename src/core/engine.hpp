// Umbrella header + the Engine concept all synchronization engines model.
#pragma once

#include <concepts>
#include <cstdint>
#include <string_view>

#include "core/adaptive_hcf.hpp"
#include "core/combine_core.hpp"
#include "core/engine_stats.hpp"
#include "core/fc_engine.hpp"
#include "core/hcf_engine.hpp"
#include "core/hcf_single_combiner.hpp"
#include "core/lock_engine.hpp"
#include "core/operation.hpp"
#include "core/phase_exec.hpp"
#include "core/scm_engine.hpp"
#include "core/sharded_engine.hpp"
#include "core/tle_engine.hpp"
#include "core/tle_fc_engine.hpp"
#include "core/types.hpp"

namespace hcf::core {

template <typename E, typename DS>
concept Engine = requires(E e, Operation<DS>& op) {
  { e.execute(op) } -> std::same_as<Phase>;
  { e.stats() } -> std::same_as<EngineStats&>;
  { e.lock_acquisitions() } -> std::convertible_to<std::uint64_t>;
  e.reset_stats();
  { E::name() } -> std::convertible_to<std::string_view>;
  { e.data() } -> std::same_as<DS&>;
};

}  // namespace hcf::core
