#pragma once
// Finding/report types shared by every static-analysis pass.
//
// A pass appends Findings to an AnalysisReport; severities separate
// "this code is wrong" (kError — generation aborts, mirlint exits
// nonzero) from "this code is wasteful or suspicious" (kWarning) and
// purely informational notes. Findings carry the instruction index so
// callers can render the offending MInst next to the message.

#include <cstddef>
#include <string>
#include <vector>

#include "opt/minst.hpp"

namespace augem::analysis {

enum class Severity { kError, kWarning, kNote };

const char* severity_name(Severity s);

/// One diagnostic from one pass.
struct Finding {
  std::size_t index = 0;   ///< instruction index the finding anchors to
  Severity severity = Severity::kError;
  std::string kind;        ///< stable kebab-case code, e.g. "oob-store"
  std::string message;     ///< human-readable description
};

/// All findings for one kernel, in pass order.
struct AnalysisReport {
  std::vector<Finding> findings;

  void add(std::size_t index, Severity sev, std::string kind,
           std::string message) {
    findings.push_back({index, sev, std::move(kind), std::move(message)});
  }

  std::size_t count(Severity s) const;
  std::size_t errors() const { return count(Severity::kError); }
  std::size_t warnings() const { return count(Severity::kWarning); }

  /// Multi-line human-readable rendering ("[12] error oob-store: … | inst").
  std::string to_string(const opt::MInstList& insts) const;

  /// JSON array of finding objects (stable keys: index, severity, kind,
  /// message, inst).
  std::string to_json(const opt::MInstList& insts) const;
};

}  // namespace augem::analysis
