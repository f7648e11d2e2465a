#include "tytra/kernels/file_workload.hpp"

#include <cctype>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <utility>
#include <variant>

#include "tytra/ir/lint.hpp"
#include "tytra/ir/parser.hpp"
#include "tytra/ir/structural_hash.hpp"
#include "tytra/ir/verifier.hpp"
#include "tytra/kernels/streams.hpp"
#include "tytra/support/binio.hpp"
#include "tytra/support/failpoint.hpp"

namespace tytra::kernels {

namespace {

/// Lowercased `nd` followed by at least one digit — the re-parameterizable
/// dimension constants ("nd1", "nd2", ...).
bool is_nd_constant(const std::string& key) {
  if (key.size() < 3 || key[0] != 'n' || key[1] != 'd') return false;
  for (std::size_t i = 2; i < key.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(key[i])) == 0) return false;
  }
  return true;
}

std::string digest_fingerprint(const ir::Module& m) {
  const ir::StructuralDigest d = ir::structural_digest(m);
  char buf[64];
  std::snprintf(buf, sizeof buf, "tir/digest=%016llx.%016llx",
                static_cast<unsigned long long>(d.key),
                static_cast<unsigned long long>(d.check));
  return buf;
}

/// The first verifier error, carrying its location; notes how many more
/// there were so a CLI user knows one fix may not be the last.
tytra::Diag first_verify_error(const tytra::DiagBag& diags) {
  const tytra::Diag* first = nullptr;
  std::size_t errors = 0;
  for (const auto& d : diags.all()) {
    if (d.severity != tytra::Severity::Error) continue;
    if (first == nullptr) first = &d;
    ++errors;
  }
  tytra::Diag out = *first;
  if (errors > 1) {
    out.message += " (and " + std::to_string(errors - 1) + " more)";
  }
  return out;
}

}  // namespace

tytra::Result<FileWorkload> load_file_workload(std::string_view source,
                                               std::uint32_t nd) {
  if (failpoint::fire("workload.parse")) {
    return tytra::make_error("injected fault at failpoint 'workload.parse'");
  }
  // First pass with the file's own values, to discover the ND constants.
  auto first = ir::parse_module(source);
  if (!first.ok()) return first.diag();

  FileWorkload out;
  for (const auto& [key, value] : first.value().constants) {
    if (!is_nd_constant(key)) continue;
    if (out.nd_constants.empty()) {
      if (value < 1 || value > 0xffffffffLL) {
        return tytra::make_error("!" + key + " = " + std::to_string(value) +
                                 " is not a usable problem dimension "
                                 "(expected [1, 2^32))");
      }
      out.default_nd = static_cast<std::uint32_t>(value);
    }
    out.nd_constants.push_back(key);
  }

  ir::ParseOutput parsed = std::move(first).take();
  if (nd != 0 && nd != out.default_nd && !out.nd_constants.empty()) {
    ir::ParseOptions options;
    for (const auto& key : out.nd_constants) {
      options.constants[key] = static_cast<std::int64_t>(nd);
    }
    auto second = ir::parse_module(source, options);
    if (!second.ok()) return second.diag();
    parsed = std::move(second).take();
  } else if (nd != 0 && out.nd_constants.empty() && nd != 1) {
    return tytra::make_error(
        "fixed-size design (no !ND<k> constants): --nd does not apply");
  }

  const auto diags = ir::verify(parsed.module);
  if (diags.has_errors()) return first_verify_error(diags);
  if (parsed.module.meta.global_size == 0) {
    return tytra::make_error("module has no usable !ngs (NDRange size is 0)");
  }

  out.baseline = std::make_shared<const ir::Module>(std::move(parsed.module));
  out.fingerprint = digest_fingerprint(*out.baseline);
  // Advisory static analysis on the verified design: structural rules
  // only (no device at load time), and never a reason to fail the load.
  out.lint = ir::lint::run_lint(*out.baseline).findings.all();
  return out;
}

ir::Module replicate_lanes(const ir::Module& baseline, std::uint32_t lanes) {
  if (lanes == 0) {
    throw std::invalid_argument("replicate_lanes: lane count must be >= 1");
  }
  if (lanes == 1) return baseline;
  const ir::Function* main_fn = baseline.entry();
  if (main_fn == nullptr) {
    throw std::invalid_argument("replicate_lanes: module has no @main");
  }
  for (const auto& item : main_fn->body) {
    if (!std::holds_alternative<ir::Call>(item)) {
      throw std::invalid_argument(
          "replicate_lanes: @main must contain only calls");
    }
  }

  ir::Module out;
  out.name = baseline.name + "_x" + std::to_string(lanes);
  out.meta = baseline.meta;

  // Per-lane Manage-IR, in port order — the layout ModuleBuilder-based
  // kernels produce when built at `lanes` directly. Objects shared by
  // several ports replicate once per lane, at first reference.
  out.memobjs.reserve(baseline.ports.size() * lanes);
  out.streamobjs.reserve(baseline.ports.size() * lanes);
  out.ports.reserve(baseline.ports.size() * lanes);
  for (std::uint32_t lane = 0; lane < lanes; ++lane) {
    std::set<std::string> seen_mem, seen_stream;
    for (const auto& port : baseline.ports) {
      const ir::StreamObject* so =
          port.streamobj.empty() ? nullptr
                                 : baseline.find_streamobj(port.streamobj);
      const ir::MemObject* mo =
          so == nullptr ? nullptr : baseline.find_memobj(so->memobj);
      if (mo != nullptr && seen_mem.insert(mo->name).second) {
        ir::MemObject m = *mo;
        m.name = lane_port_name(mo->name, lane);
        m.size_words = mo->size_words % lanes == 0
                           ? mo->size_words / lanes
                           : mo->size_words / lanes + 1;
        out.memobjs.push_back(std::move(m));
      }
      if (so != nullptr && seen_stream.insert(so->name).second) {
        ir::StreamObject s = *so;
        s.name = lane_port_name(so->name, lane);
        if (mo != nullptr) s.memobj = lane_port_name(so->memobj, lane);
        out.streamobjs.push_back(std::move(s));
      }
      ir::PortBinding p = port;
      p.name = lane_port_name(port.name, lane);
      if (so != nullptr) p.streamobj = lane_port_name(port.streamobj, lane);
      out.ports.push_back(std::move(p));
    }
  }

  out.functions.reserve(baseline.functions.size() + 1);
  for (const auto& f : baseline.functions) {
    if (f.name != "main") out.functions.push_back(f);
  }

  // The par wrapper: @main's call list once per lane, port-named global
  // arguments redirected to the lane's streams.
  std::string wrapper = "f1";
  while (baseline.find_function(wrapper) != nullptr) wrapper += "_";
  ir::Function par;
  par.name = wrapper;
  par.kind = ir::FuncKind::Par;
  par.body.reserve(main_fn->body.size() * lanes);
  for (std::uint32_t lane = 0; lane < lanes; ++lane) {
    for (const auto& item : main_fn->body) {
      ir::Call call = std::get<ir::Call>(item);
      for (auto& arg : call.args) {
        if (arg.kind == ir::Operand::Kind::Global &&
            baseline.find_port(arg.name) != nullptr) {
          arg.name = lane_port_name(arg.name, lane);
        }
      }
      par.body.push_back(std::move(call));
    }
  }
  out.functions.push_back(std::move(par));

  ir::Function entry;
  entry.name = "main";
  entry.kind = main_fn->kind;
  ir::Call call;
  call.callee = wrapper;
  call.kind_annot = ir::FuncKind::Par;
  entry.body.emplace_back(std::move(call));
  out.functions.push_back(std::move(entry));
  return out;
}

dse::KeyedLowerer file_lowerer(std::shared_ptr<const ir::Module> baseline) {
  std::string fingerprint = digest_fingerprint(*baseline);
  return dse::KeyedLowerer(
      std::move(fingerprint),
      [m = std::move(baseline)](const frontend::Variant& v,
                                ir::BuildArena* /*arena*/) {
        return replicate_lanes(*m, v.lanes());
      });
}

tytra::Result<const WorkloadInfo*> register_file_workload(
    Registry& reg, std::string name, std::string source_path,
    std::string source_text, std::vector<tytra::Diag>* lint_out) {
  auto loaded = load_file_workload(source_text, 0);
  if (!loaded.ok()) {
    tytra::Diag d = loaded.diag();
    d.message = source_path + ": " + d.message;
    return d;
  }
  const FileWorkload& fw = loaded.value();
  if (lint_out != nullptr) *lint_out = fw.lint;

  // Lane variants need a call-only @main (see replicate_lanes); reject
  // here, at registration, instead of throwing mid-sweep.
  for (const auto& item : fw.baseline->entry()->body) {
    if (!std::holds_alternative<ir::Call>(item)) {
      return tytra::make_error(source_path +
                               ": @main must contain only calls to be "
                               "explorable over lane variants");
    }
  }

  WorkloadInfo info;
  info.name = std::move(name);
  info.source = source_path;
  info.summary = "file-backed design '" + fw.baseline->name + "'";
  info.nd_help = fw.nd_constants.empty()
                     ? std::string("fixed-size design (--nd does not apply)")
                     : "value for !" + fw.nd_constants.front() +
                           (fw.nd_constants.size() > 1 ? ", ..." : "");
  info.default_nd = fw.default_nd;
  info.ndrange = [source_text,
                  source_path](std::uint32_t nd) -> tytra::Result<std::uint64_t> {
    if (nd == 0) {
      return tytra::make_error(source_path + ": --nd must be positive");
    }
    auto l = load_file_workload(source_text, nd);
    if (!l.ok()) {
      tytra::Diag d = l.diag();
      d.message = source_path + ": " + d.message;
      return d;
    }
    return l.value().baseline->meta.global_size;
  };
  info.make_lowerer = [source_text](std::uint32_t nd) {
    auto l = load_file_workload(source_text, nd);
    if (!l.ok()) {
      // ndrange() ran first on the same text and dimension (make_job
      // guarantees the order), so this is unreachable short of a caller
      // bypassing validation.
      throw std::runtime_error(l.error_message());
    }
    return file_lowerer(std::move(l).take().baseline);
  };
  return reg.try_add(std::move(info));
}

tytra::Result<const WorkloadInfo*> register_file_workload(
    Registry& reg, const std::string& path,
    std::vector<tytra::Diag>* lint_out) {
  if (const WorkloadInfo* existing = reg.find(path);
      existing != nullptr && existing->source == path) {
    return existing;  // the same path registered twice (e.g. repeated --ir)
  }
  auto text = binio::read_file(path);
  if (!text.ok()) return text.diag();
  return register_file_workload(reg, path, path, std::move(text).take(),
                                lint_out);
}

}  // namespace tytra::kernels
