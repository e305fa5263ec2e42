#include "analysis/findings.hpp"

#include <sstream>

#include "support/json.hpp"

namespace augem::analysis {

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kError: return "error";
    case Severity::kWarning: return "warning";
    case Severity::kNote: return "note";
  }
  return "?";
}

std::size_t AnalysisReport::count(Severity s) const {
  std::size_t n = 0;
  for (const Finding& f : findings)
    if (f.severity == s) ++n;
  return n;
}

std::string AnalysisReport::to_string(const opt::MInstList& insts) const {
  std::ostringstream os;
  for (const Finding& f : findings) {
    os << "[" << f.index << "] " << severity_name(f.severity) << " " << f.kind
       << ": " << f.message;
    if (f.index < insts.size()) os << "  | " << insts[f.index].to_string();
    os << "\n";
  }
  return os.str();
}

std::string AnalysisReport::to_json(const opt::MInstList& insts) const {
  Json out = Json::array();
  for (const Finding& f : findings) {
    Json j = Json::object();
    j["index"] = Json(static_cast<double>(f.index));
    j["severity"] = Json(severity_name(f.severity));
    j["kind"] = Json(f.kind);
    j["message"] = Json(f.message);
    if (f.index < insts.size()) j["inst"] = Json(insts[f.index].to_string());
    out.push_back(std::move(j));
  }
  return out.dump();
}

}  // namespace augem::analysis
