// Tests for the streaming structural hash that the DSE cost cache keys
// on, and for the one-traversal AnalysisSummary parity with the legacy
// per-question analyses.
//
// The hash contract: equal printed IR <=> equal digest (checked across
// all three kernels, generated kernels and their variant sweeps), and any
// difference the printer would show — a port, an offset, a metadata
// field, an instruction — changes the digest.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "tytra/cost/report.hpp"
#include "tytra/dse/cache.hpp"
#include "tytra/frontend/transform.hpp"
#include "tytra/ir/analysis.hpp"
#include "tytra/ir/printer.hpp"
#include "tytra/ir/structural_hash.hpp"
#include "tytra/kernels/file_workload.hpp"
#include "tytra/kernels/generator.hpp"
#include "tytra/kernels/kernels.hpp"
#include "tytra/sim/cycle_model.hpp"

namespace {

using namespace tytra;
using ir::StructuralDigest;

ir::Module sor(std::uint32_t lanes, std::uint32_t dim = 24) {
  kernels::SorConfig cfg;
  cfg.im = cfg.jm = cfg.km = dim;
  cfg.lanes = lanes;
  cfg.nki = 10;
  return kernels::make_sor(cfg);
}

ir::Module hotspot(std::uint32_t lanes) {
  kernels::HotspotConfig cfg;
  cfg.rows = cfg.cols = 24;
  cfg.lanes = lanes;
  return kernels::make_hotspot(cfg);
}

ir::Module lavamd(std::uint32_t lanes) {
  kernels::LavamdConfig cfg;
  cfg.particles = 1024;
  cfg.lanes = lanes;
  return kernels::make_lavamd(cfg);
}

// --------------------------------------------------------------------------
// Equal printed IR <=> equal digest
// --------------------------------------------------------------------------

TEST(StructuralHash, PrintEqualityMatchesDigestEqualityAcrossKernelsAndSweep) {
  std::vector<ir::Module> designs;
  for (const std::uint32_t lanes : {1u, 2u, 4u, 8u}) {
    designs.push_back(sor(lanes));
    designs.push_back(hotspot(lanes));
    designs.push_back(lavamd(lanes));
  }
  // Rebuilding the same variant must reproduce both print and digest.
  designs.push_back(sor(4));
  designs.push_back(hotspot(2));

  for (std::size_t i = 0; i < designs.size(); ++i) {
    for (std::size_t j = 0; j < designs.size(); ++j) {
      const bool print_equal =
          ir::print_module(designs[i]) == ir::print_module(designs[j]);
      const bool digest_equal =
          ir::structural_digest(designs[i]) == ir::structural_digest(designs[j]);
      EXPECT_EQ(print_equal, digest_equal) << "designs " << i << " vs " << j;
      EXPECT_EQ(print_equal, ir::structural_hash(designs[i]) ==
                                 ir::structural_hash(designs[j]))
          << "designs " << i << " vs " << j;
    }
  }
}

// Generated kernels dominate a cold campaign, and the cache keys on the
// digest alone: the contract must hold for them at every lane count the
// explorer enumerates, lowered exactly as a file-backed workload is.
TEST(StructuralHash, PrintEqualityMatchesDigestEqualityAcrossGeneratedKernels) {
  constexpr std::uint32_t kMaxLanes = 16;
  struct Design {
    std::string printed;
    StructuralDigest digest;
  };
  std::vector<Design> designs;
  const auto add = [&designs](const ir::Module& m) {
    designs.push_back({ir::print_module(m), ir::structural_digest(m)});
  };
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    auto baseline =
        std::make_shared<const ir::Module>(kernels::generate_kernel(seed));
    const dse::KeyedLowerer lowerer = kernels::file_lowerer(baseline);
    const auto variants = frontend::enumerate_variants(
        baseline->meta.global_size, kMaxLanes);
    for (const frontend::Variant& v : variants) add(lowerer.lower(v));
    // Re-lowering a variant must reproduce both print and digest.
    add(lowerer.lower(variants.back()));
  }

  std::size_t equal_pairs = 0;
  for (std::size_t i = 0; i < designs.size(); ++i) {
    for (std::size_t j = i + 1; j < designs.size(); ++j) {
      const bool print_equal = designs[i].printed == designs[j].printed;
      EXPECT_EQ(print_equal, designs[i].digest == designs[j].digest)
          << "designs " << i << " vs " << j;
      equal_pairs += print_equal ? 1 : 0;
    }
  }
  EXPECT_GE(equal_pairs, 32u) << "the equal side of the contract went untested";
}

TEST(StructuralHash, RebuildingTheSameDesignIsStable) {
  const StructuralDigest a = ir::structural_digest(sor(4));
  const StructuralDigest b = ir::structural_digest(sor(4));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.key, ir::structural_hash(sor(4)));
}

// --------------------------------------------------------------------------
// Any printed difference changes the digest
// --------------------------------------------------------------------------

TEST(StructuralHash, EveryStructuralMutationChangesTheDigest) {
  const ir::Module base = sor(2);
  const StructuralDigest base_digest = ir::structural_digest(base);

  std::map<std::string, ir::Module> mutants;

  {
    ir::Module m = base;
    m.name += "_x";
    mutants.emplace("module name", std::move(m));
  }
  {
    ir::Module m = base;
    m.meta.global_size += 1;
    mutants.emplace("metadata: ngs", std::move(m));
  }
  {
    ir::Module m = base;
    m.meta.nki += 1;
    mutants.emplace("metadata: nki", std::move(m));
  }
  {
    ir::Module m = base;
    m.meta.form = ir::ExecForm::A;
    mutants.emplace("metadata: form", std::move(m));
  }
  {
    ir::Module m = base;
    m.meta.freq_hz = 150e6;
    mutants.emplace("metadata: fd", std::move(m));
  }
  {
    ir::Module m = base;
    m.meta.ii = 3;
    mutants.emplace("metadata: ii", std::move(m));
  }
  {
    ir::Module m = base;
    m.ports.pop_back();
    mutants.emplace("port: removed", std::move(m));
  }
  {
    ir::Module m = base;
    m.ports.front().init_offset = 7;
    mutants.emplace("port: init offset", std::move(m));
  }
  {
    ir::Module m = base;
    m.ports.front().dir = ir::StreamDir::Out;
    mutants.emplace("port: direction", std::move(m));
  }
  {
    ir::Module m = base;
    m.ports.front().pattern = ir::AccessPattern::Strided;
    mutants.emplace("port: pattern", std::move(m));
  }
  {
    ir::Module m = base;
    m.ports.front().type = ir::Type::vector_of(ir::ScalarType::uint(18), 4);
    mutants.emplace("port: type", std::move(m));
  }
  {
    ir::Module m = base;
    m.memobjs.front().size_words += 1;
    mutants.emplace("memobj: size", std::move(m));
  }
  {
    ir::Module m = base;
    m.streamobjs.front().pattern = ir::AccessPattern::Strided;
    m.streamobjs.front().stride_words = 24;
    mutants.emplace("streamobj: pattern+stride", std::move(m));
  }
  {
    ir::Module m = base;
    for (auto& item : m.functions.front().body) {
      if (auto* off = std::get_if<ir::OffsetDecl>(&item)) {
        off->offset += 1;
        break;
      }
    }
    mutants.emplace("offset decl: distance", std::move(m));
  }
  {
    ir::Module m = base;
    for (auto& item : m.functions.front().body) {
      if (auto* instr = std::get_if<ir::Instr>(&item)) {
        instr->op = ir::Opcode::Add;
        break;
      }
    }
    mutants.emplace("instruction: opcode", std::move(m));
  }
  {
    ir::Module m = base;
    for (auto& item : m.functions.front().body) {
      if (auto* instr = std::get_if<ir::Instr>(&item)) {
        instr->type = ir::Type::scalar_of(ir::ScalarType::uint(32));
        break;
      }
    }
    mutants.emplace("instruction: type", std::move(m));
  }
  {
    ir::Module m = base;
    ir::Function& f = m.functions.front();
    f.body.pop_back();
    mutants.emplace("instruction: removed", std::move(m));
  }
  {
    ir::Module m = base;
    for (auto& item : m.functions.back().body) {
      if (auto* call = std::get_if<ir::Call>(&item)) {
        call->kind_annot = ir::FuncKind::Seq;
        break;
      }
    }
    mutants.emplace("call: kind annotation", std::move(m));
  }

  for (const auto& [what, mutant] : mutants) {
    EXPECT_NE(ir::structural_digest(mutant), base_digest) << what;
    // The mutation is visible to the printer too — the digest contract
    // tracks printed identity from both sides.
    EXPECT_NE(ir::print_module(mutant), ir::print_module(base)) << what;
  }
}

// --------------------------------------------------------------------------
// Cache identity built on the digest
// --------------------------------------------------------------------------

TEST(StructuralHash, DesignKeySeparatesDesignsAndDevices) {
  const auto sv = cost::DeviceCostDb::calibrate(target::stratix_v_gsd8());
  const auto v7 = cost::DeviceCostDb::calibrate(target::virtex7_690t());
  const ir::Module a = sor(1);
  const ir::Module b = sor(4);
  EXPECT_EQ(dse::design_key(a, sv), dse::design_key(sor(1), sv));
  EXPECT_NE(dse::design_key(a, sv), dse::design_key(b, sv));
  EXPECT_NE(dse::design_key(a, sv), dse::design_key(a, v7));
}

TEST(StructuralHash, CacheHitReportEqualsDirectCostReport) {
  const auto db = cost::DeviceCostDb::calibrate(target::stratix_v_gsd8());
  dse::CostCache cache;
  const ir::Module m = sor(4);
  bool hit = true;
  const cost::CostReport miss_report = cache.cost(m, db, &hit);
  EXPECT_FALSE(hit);
  const cost::CostReport hit_report = cache.cost(m, db, &hit);
  EXPECT_TRUE(hit);
  const cost::CostReport direct = cost::cost_design(m, db);
  // format_report covers every user-visible field of the report.
  EXPECT_EQ(cost::format_report(hit_report), cost::format_report(miss_report));
  const std::string a = cost::format_report(hit_report);
  const std::string b = cost::format_report(direct);
  // The estimate wall-time line differs run to run; compare the rest.
  EXPECT_EQ(a.substr(0, a.rfind("estimated in")),
            b.substr(0, b.rfind("estimated in")));
}

TEST(StructuralHash, ConfigurableShardCountServesAllLookups) {
  const auto db = cost::DeviceCostDb::calibrate(target::stratix_v_gsd8());
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3},
                                   std::size_t{64}}) {
    dse::CostCache cache(shards);
    EXPECT_EQ(cache.shard_count(), shards);
    for (const std::uint32_t lanes : {1u, 2u, 4u}) cache.cost(sor(lanes), db);
    for (const std::uint32_t lanes : {1u, 2u, 4u}) cache.cost(sor(lanes), db);
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_EQ(cache.stats().hits, 3u);
    EXPECT_EQ(cache.stats().misses, 3u);
  }
}

// --------------------------------------------------------------------------
// AnalysisSummary parity with the legacy per-question analyses
// --------------------------------------------------------------------------

TEST(AnalysisSummary, MatchesLegacyAnalysesOnAllKernels) {
  const std::vector<ir::Module> designs = {sor(1), sor(8), hotspot(4),
                                           lavamd(2)};
  for (const auto& m : designs) {
    const ir::AnalysisSummary s = ir::summarize(m);
    EXPECT_EQ(s.config, ir::classify_config(m));
    EXPECT_EQ(s.params.knl, ir::lane_count(m));
    EXPECT_EQ(s.params.kpd, ir::pipeline_depth(m));

    const ir::DesignParams legacy = ir::extract_params(m);
    EXPECT_EQ(s.params.ngs, legacy.ngs);
    EXPECT_DOUBLE_EQ(s.params.nwpt, legacy.nwpt);
    EXPECT_EQ(s.params.nki, legacy.nki);
    EXPECT_EQ(s.params.noff, legacy.noff);
    EXPECT_EQ(s.params.kpd, legacy.kpd);
    EXPECT_DOUBLE_EQ(s.params.nto, legacy.nto);
    EXPECT_DOUBLE_EQ(s.params.ni, legacy.ni);
    EXPECT_EQ(s.params.dv, legacy.dv);
    EXPECT_EQ(s.params.form, legacy.form);

    // Per-function schedules equal the one-off scheduler's.
    for (const auto& fs : s.functions) {
      const ir::FunctionSchedule one = ir::schedule_function(m, *fs.func);
      EXPECT_EQ(fs.schedule.depth, one.depth) << fs.func->name;
      EXPECT_EQ(fs.schedule.issue_at, one.issue_at) << fs.func->name;
      EXPECT_EQ(fs.schedule.ready_at, one.ready_at) << fs.func->name;
    }
  }
}

TEST(AnalysisSummary, EstimateFunctionAcceptsDetachedFunctionObjects) {
  // The public API takes any Function walked against the module — a copy
  // must cost exactly like the member it was copied from.
  const auto db = cost::DeviceCostDb::calibrate(target::fig15_profile());
  const ir::Module m = sor(4);
  const ir::Function copy = *m.entry();
  const tytra::ResourceVec via_member =
      cost::estimate_function(m, *m.entry(), db);
  const tytra::ResourceVec via_copy = cost::estimate_function(m, copy, db);
  EXPECT_EQ(via_member.to_string(), via_copy.to_string());
  EXPECT_GT(via_copy.aluts, 0.0);
}

TEST(AnalysisSummary, CostAndTimingOverloadsMatchModuleOnlyPaths) {
  const auto db = cost::DeviceCostDb::calibrate(target::fig15_profile());
  for (const std::uint32_t lanes : {1u, 4u, 16u}) {
    const ir::Module m = sor(lanes);
    const ir::AnalysisSummary s = ir::summarize(m);

    const cost::ResourceEstimate ra = cost::estimate_resources(m, db);
    const cost::ResourceEstimate rb = cost::estimate_resources(m, db, s);
    EXPECT_EQ(ra.total.to_string(), rb.total.to_string()) << lanes;
    EXPECT_EQ(ra.fits, rb.fits) << lanes;
    EXPECT_EQ(ra.per_function.size(), rb.per_function.size()) << lanes;
    for (const auto& [name, vec] : ra.per_function) {
      const auto it = rb.per_function.find(name);
      ASSERT_NE(it, rb.per_function.end()) << name;
      EXPECT_EQ(vec.to_string(), it->second.to_string()) << name;
    }

    const auto ta = cost::estimate_throughput(m, db);
    const auto tb = cost::estimate_throughput(m, db, s);
    EXPECT_EQ(ta.ekit, tb.ekit) << lanes;
    EXPECT_EQ(ta.seconds_per_instance, tb.seconds_per_instance) << lanes;
    EXPECT_EQ(ta.limiting, tb.limiting) << lanes;

    const sim::TimingResult sa = sim::simulate_timing(m, db.device());
    const sim::TimingResult sb = sim::simulate_timing(m, db.device(), s);
    EXPECT_EQ(sa.cycles_per_instance, sb.cycles_per_instance) << lanes;
    EXPECT_EQ(sa.total_seconds, sb.total_seconds) << lanes;
  }
}

}  // namespace
