// Shared helpers for engine correctness tests: uniform construction of
// every engine over a given data structure, so correctness suites can be
// typed over the full engine list.
#pragma once

#include <memory>

#include "adapters/avl_ops.hpp"
#include "adapters/deque_ops.hpp"
#include "adapters/ht_ops.hpp"
#include "adapters/pq_ops.hpp"
#include "core/engine.hpp"

namespace hcf::test {

// Engine factory: specialize construction per engine family. `Config` is a
// tag carrying the HCF class configs for the data structure under test.
template <typename E>
struct EngineMaker;

template <typename DS, typename L>
struct EngineMaker<core::LockEngine<DS, L>> {
  template <typename Cfg>
  static auto make(DS& ds, const Cfg&) {
    return std::make_unique<core::LockEngine<DS, L>>(ds);
  }
};

template <typename DS, typename L>
struct EngineMaker<core::TleEngine<DS, L>> {
  template <typename Cfg>
  static auto make(DS& ds, const Cfg&) {
    return std::make_unique<core::TleEngine<DS, L>>(ds);
  }
};

template <typename DS, typename L>
struct EngineMaker<core::ScmEngine<DS, L>> {
  template <typename Cfg>
  static auto make(DS& ds, const Cfg&) {
    return std::make_unique<core::ScmEngine<DS, L>>(ds);
  }
};

template <typename DS, typename L, typename SL>
struct EngineMaker<core::FcEngine<DS, L, SL>> {
  template <typename Cfg>
  static auto make(DS& ds, const Cfg&) {
    return std::make_unique<core::FcEngine<DS, L, SL>>(ds);
  }
};

template <typename DS, typename L, typename SL>
struct EngineMaker<core::TleFcEngine<DS, L, SL>> {
  template <typename Cfg>
  static auto make(DS& ds, const Cfg&) {
    return std::make_unique<core::TleFcEngine<DS, L, SL>>(ds);
  }
};

template <typename DS, typename L, typename SL>
struct EngineMaker<core::HcfEngine<DS, L, SL>> {
  template <typename Cfg>
  static auto make(DS& ds, const Cfg& cfg) {
    return std::make_unique<core::HcfEngine<DS, L, SL>>(ds, cfg.classes,
                                                        cfg.num_arrays);
  }
};

template <typename DS, typename L, typename SL>
struct EngineMaker<core::HcfSingleCombinerEngine<DS, L, SL>> {
  template <typename Cfg>
  static auto make(DS& ds, const Cfg& cfg) {
    return std::make_unique<core::HcfSingleCombinerEngine<DS, L, SL>>(
        ds, cfg.classes, cfg.num_arrays);
  }
};

struct HcfConfig {
  std::vector<core::ClassConfig> classes;
  std::size_t num_arrays = 1;
};

// All engines over one data structure, for typed test suites.
template <typename DS>
struct Engines {
  using Lock = core::LockEngine<DS>;
  using Tle = core::TleEngine<DS>;
  using Scm = core::ScmEngine<DS>;
  using Fc = core::FcEngine<DS>;
  using TleFc = core::TleFcEngine<DS>;
  using Hcf = core::HcfEngine<DS>;
  using Hcf1C = core::HcfSingleCombinerEngine<DS>;
};

}  // namespace hcf::test
