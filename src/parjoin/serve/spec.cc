#include "parjoin/serve/spec.h"

#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "parjoin/serve/flags.h"

namespace parjoin {
namespace serve {

namespace {

Status LineError(const std::string& name, int line, const std::string& what) {
  return InvalidArgumentError(name + ":" + std::to_string(line) + ": " +
                              what);
}

std::vector<std::string> Tokenize(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

StatusOr<AttrId> ParseAttr(const std::string& token) {
  auto value = ParseInt64Text(token);
  if (!value.ok()) {
    return InvalidArgumentError("attribute '" + token +
                                "' is not a number");
  }
  if (*value < 0 || *value > std::numeric_limits<AttrId>::max()) {
    return InvalidArgumentError("attribute " + token + " out of range");
  }
  return static_cast<AttrId>(*value);
}

// Directive handlers shared between standalone specs and workload query
// blocks. Each validates arity exactly: trailing garbage is an error, not
// a shrug.

Status HandleP(const std::vector<std::string>& tokens,
               const std::string& name, int line, int* p) {
  if (tokens.size() != 2) {
    return LineError(name, line,
                     "'p' needs exactly one server count, got " +
                         std::to_string(tokens.size() - 1) + " token(s)");
  }
  auto value = ParseInt64Text(tokens[1]);
  if (!value.ok() || *value < 1 ||
      *value > std::numeric_limits<int>::max()) {
    return LineError(name, line,
                     "'p' needs a positive server count, got '" +
                         tokens[1] + "'");
  }
  *p = static_cast<int>(*value);
  return OkStatus();
}

Status HandleEdge(const std::vector<std::string>& tokens,
                  const std::string& name, int line,
                  std::vector<SpecEdge>* edges) {
  if (tokens.size() != 4) {
    return LineError(name, line,
                     "'edge' needs exactly <attrU> <attrV> <source>, got " +
                         std::to_string(tokens.size() - 1) + " token(s)");
  }
  SpecEdge edge;
  auto u = ParseAttr(tokens[1]);
  if (!u.ok()) return LineError(name, line, u.status().message());
  auto v = ParseAttr(tokens[2]);
  if (!v.ok()) return LineError(name, line, v.status().message());
  edge.u = *u;
  edge.v = *v;
  edge.source = tokens[3];
  if (edge.IsRef() && edge.RefName().empty()) {
    return LineError(name, line, "'@' relation reference has no name");
  }
  edges->push_back(std::move(edge));
  return OkStatus();
}

Status HandleOutput(const std::vector<std::string>& tokens,
                    const std::string& name, int line,
                    std::vector<AttrId>* outputs) {
  if (tokens.size() < 2) {
    return LineError(name, line,
                     "'output' needs at least one attribute");
  }
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    auto attr = ParseAttr(tokens[i]);
    if (!attr.ok()) {
      return LineError(name, line,
                       "'output': " + attr.status().message());
    }
    outputs->push_back(*attr);
  }
  return OkStatus();
}

Status HandleResult(const std::vector<std::string>& tokens,
                    const std::string& name, int line, std::string* path) {
  if (tokens.size() != 2) {
    return LineError(name, line,
                     "'result' needs exactly one path, got " +
                         std::to_string(tokens.size() - 1) + " token(s)");
  }
  *path = tokens[1];
  return OkStatus();
}

bool ValidRelationName(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool word = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_';
    if (!word) return false;
  }
  return true;
}

StatusOr<std::string> ReadFileOrError(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return NotFoundError("cannot open spec " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

StatusOr<QuerySpec> ParseQuerySpecText(const std::string& text,
                                       const std::string& name) {
  QuerySpec spec;
  std::istringstream in(text);
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::vector<std::string> tokens = Tokenize(line);
    if (tokens.empty() || tokens[0][0] == '#') continue;
    const std::string& directive = tokens[0];
    if (directive == "p") {
      PARJOIN_RETURN_IF_ERROR(HandleP(tokens, name, line_number, &spec.p));
    } else if (directive == "edge") {
      PARJOIN_RETURN_IF_ERROR(
          HandleEdge(tokens, name, line_number, &spec.edges));
    } else if (directive == "output") {
      PARJOIN_RETURN_IF_ERROR(
          HandleOutput(tokens, name, line_number, &spec.outputs));
    } else if (directive == "result") {
      PARJOIN_RETURN_IF_ERROR(
          HandleResult(tokens, name, line_number, &spec.result_path));
    } else {
      return LineError(name, line_number,
                       "unknown directive '" + directive + "'");
    }
  }
  if (spec.edges.empty()) {
    return InvalidArgumentError(name + ": spec has no edges");
  }
  return spec;
}

StatusOr<QuerySpec> ParseQuerySpecFile(const std::string& path) {
  PARJOIN_ASSIGN_OR_RETURN(const std::string text, ReadFileOrError(path));
  return ParseQuerySpecText(text, path);
}

StatusOr<WorkloadSpec> ParseWorkloadText(const std::string& text,
                                         const std::string& name) {
  WorkloadSpec workload;
  std::unordered_set<std::string> registered;
  std::istringstream in(text);
  std::string line;
  int line_number = 0;
  bool in_query = false;
  int query_begin_line = 0;
  WorkloadQuery current;

  auto check_ref = [&](const SpecEdge& edge, int at_line) -> Status {
    if (edge.IsRef() && registered.find(edge.RefName()) == registered.end()) {
      return LineError(name, at_line,
                       "edge references unregistered relation '@" +
                           edge.RefName() + "'");
    }
    return OkStatus();
  };

  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::vector<std::string> tokens = Tokenize(line);
    if (tokens.empty() || tokens[0][0] == '#') continue;
    const std::string& directive = tokens[0];

    if (!in_query) {
      if (directive == "p") {
        PARJOIN_RETURN_IF_ERROR(
            HandleP(tokens, name, line_number, &workload.p));
      } else if (directive == "register") {
        if (tokens.size() != 3) {
          return LineError(name, line_number,
                           "'register' needs exactly <name> <csv-path>, "
                           "got " +
                               std::to_string(tokens.size() - 1) +
                               " token(s)");
        }
        if (!ValidRelationName(tokens[1])) {
          return LineError(name, line_number,
                           "relation name '" + tokens[1] +
                               "' must be [A-Za-z0-9_]+");
        }
        if (!registered.insert(tokens[1]).second) {
          return LineError(name, line_number,
                           "relation '" + tokens[1] +
                               "' registered twice");
        }
        workload.relations.push_back({tokens[1], tokens[2]});
      } else if (directive == "query") {
        if (tokens.size() > 2) {
          return LineError(name, line_number,
                           "'query' takes at most one label");
        }
        in_query = true;
        query_begin_line = line_number;
        current = WorkloadQuery{};
        current.label =
            tokens.size() == 2
                ? tokens[1]
                : "q" + std::to_string(workload.queries.size());
      } else if (directive == "end" || directive == "edge" ||
                 directive == "output" || directive == "result" ||
                 directive == "repeat") {
        return LineError(name, line_number,
                         "'" + directive + "' outside a query block");
      } else {
        return LineError(name, line_number,
                         "unknown directive '" + directive + "'");
      }
      continue;
    }

    // Inside a query block.
    if (directive == "edge") {
      PARJOIN_RETURN_IF_ERROR(
          HandleEdge(tokens, name, line_number, &current.spec.edges));
      PARJOIN_RETURN_IF_ERROR(
          check_ref(current.spec.edges.back(), line_number));
    } else if (directive == "output") {
      PARJOIN_RETURN_IF_ERROR(
          HandleOutput(tokens, name, line_number, &current.spec.outputs));
    } else if (directive == "result") {
      PARJOIN_RETURN_IF_ERROR(HandleResult(tokens, name, line_number,
                                           &current.spec.result_path));
    } else if (directive == "repeat") {
      if (tokens.size() != 2) {
        return LineError(name, line_number,
                         "'repeat' needs exactly one count");
      }
      auto count = ParseInt64Text(tokens[1]);
      if (!count.ok() || *count < 1 || *count > 1000000) {
        return LineError(name, line_number,
                         "'repeat' needs a count in [1, 1000000], got '" +
                             tokens[1] + "'");
      }
      current.repeat = static_cast<int>(*count);
    } else if (directive == "p") {
      return LineError(name, line_number,
                       "'p' inside a query block; the cluster size is "
                       "fixed by the workload header");
    } else if (directive == "end") {
      if (tokens.size() != 1) {
        return LineError(name, line_number, "'end' takes no arguments");
      }
      if (current.spec.edges.empty()) {
        return LineError(name, line_number,
                         "query block '" + current.label +
                             "' has no edges");
      }
      current.spec.p = workload.p;
      in_query = false;
      workload.queries.push_back(std::move(current));
    } else {
      return LineError(name, line_number,
                       "unknown directive '" + directive +
                           "' in query block");
    }
  }
  if (in_query) {
    return LineError(name, query_begin_line,
                     "query block '" + current.label +
                         "' is never closed with 'end'");
  }
  if (workload.queries.empty()) {
    return InvalidArgumentError(name + ": workload has no query blocks");
  }
  // The header's p applies to every query, including blocks parsed before
  // a late 'p' directive.
  for (auto& q : workload.queries) q.spec.p = workload.p;
  return workload;
}

StatusOr<WorkloadSpec> ParseWorkloadFile(const std::string& path) {
  PARJOIN_ASSIGN_OR_RETURN(const std::string text, ReadFileOrError(path));
  return ParseWorkloadText(text, path);
}

}  // namespace serve
}  // namespace parjoin
