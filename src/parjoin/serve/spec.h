// Query-spec and workload-file parsing, shared by query_runner and
// parjoind.
//
// This is the query-ingress path of the system: every directive is fully
// validated and every malformed line surfaces as a line-numbered
// InvalidArgument Status — never a silently wrong query. (The parser this
// replaces accepted `output x` as an EMPTY output list, `result` with a
// missing path, and `p 8 junk`.)
//
// Query spec (one directive per line; '#' comments; used standalone by
// query_runner and inside workload query blocks):
//
//   p <servers>                        cluster size (standalone specs only)
//   edge <attrU> <attrV> <source>      one relation per edge; <source> is a
//                                      CSV path, or @<name> referencing a
//                                      relation registered by the workload
//   output <attr> [<attr> ...]         output attributes y (>= 1)
//   result <csv-path>                  where to write the result (optional)
//
// Workload file (parjoind): registrations first, then query blocks.
//
//   p <servers>
//   register <name> <csv-path>         load + distribute + sketch once
//   query [<label>]                    begin a query block
//     edge 0 1 @edges
//     output 0 2
//     repeat <k>                       enqueue the query k times
//   end

#ifndef PARJOIN_SERVE_SPEC_H_
#define PARJOIN_SERVE_SPEC_H_

#include <string>
#include <vector>

#include "parjoin/common/status.h"
#include "parjoin/relation/schema.h"

namespace parjoin {
namespace serve {

struct SpecEdge {
  AttrId u = 0;
  AttrId v = 0;
  // A CSV path, or "@<name>" referencing a registered relation.
  std::string source;

  bool IsRef() const { return !source.empty() && source[0] == '@'; }
  std::string RefName() const { return source.substr(1); }
};

struct QuerySpec {
  int p = 16;
  std::vector<SpecEdge> edges;
  std::vector<AttrId> outputs;
  std::string result_path;  // empty: caller decides (or skips writing)
};

// Parses a standalone query spec. `name` labels error messages
// ("name:line: ...").
StatusOr<QuerySpec> ParseQuerySpecText(const std::string& text,
                                       const std::string& name);
StatusOr<QuerySpec> ParseQuerySpecFile(const std::string& path);

struct WorkloadRegistration {
  std::string name;
  std::string path;
};

struct WorkloadQuery {
  std::string label;
  QuerySpec spec;  // spec.p mirrors the workload header
  int repeat = 1;
};

struct WorkloadSpec {
  int p = 8;
  std::vector<WorkloadRegistration> relations;
  std::vector<WorkloadQuery> queries;
};

// Parses a parjoind workload. Every @<name> edge reference must resolve to
// a `register` directive earlier in the file.
StatusOr<WorkloadSpec> ParseWorkloadText(const std::string& text,
                                         const std::string& name);
StatusOr<WorkloadSpec> ParseWorkloadFile(const std::string& path);

}  // namespace serve
}  // namespace parjoin

#endif  // PARJOIN_SERVE_SPEC_H_
