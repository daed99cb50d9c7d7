#pragma once

// Result serialization shared by every consumer of a ScenarioResult: the
// megflood_run CLI (table / csv / json formats) and the serve layer's JSON
// replies (serve/scheduler.cpp) route through these emitters, so quoting,
// escaping and the numeric-vs-null convention exist exactly once
// (ISSUE 8).  The flat (column, value) field list is the one source of
// truth for column names and ordering; round statistics are empty strings
// (CSV) / null (JSON) when no trial completed — never a fake 0.

#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace megflood {

struct ScenarioSpec;
struct ScenarioResult;
struct Measurement;

// %.10g — the one float-to-text policy for machine-readable output.
std::string format_double(double value);

// A numeric literal that round-trips through the CLI parameter parsers:
// integral values print integral (an n sweep must produce "128", not
// "128.0", to survive the u64 parser), everything else %.10g.
std::string format_cli_number(double value);

// A round statistic as a human-facing table cell.  When no trial
// completed every Summary field reads 0, which must not print as a real
// round count: the cell reads "n/a (0 done)" instead.
std::string format_rounds(const Measurement& m, double value,
                          int precision = 1);

// JSON string literal: quotes, backslash-escapes '"' and '\\', and
// \u00XX-escapes control characters so an emitted line can never contain
// a raw newline (the serve protocol is newline-delimited).
std::string json_quote(const std::string& s);

using ResultFields = std::vector<std::pair<std::string, std::string>>;

// Flat (column, value) rows shared by the csv and json emitters.
ResultFields result_fields(const ScenarioSpec& spec,
                           const ScenarioResult& result);

// The warning channel collapses to one CSV cell, so individual warnings
// must stay comma-free (enforced at the sources) and are ';'-joined here.
std::string join_warnings(const std::vector<std::string>& warnings);

void emit_csv_header(std::ostream& out, const ResultFields& fields);
void emit_csv_row(std::ostream& out, const ResultFields& fields);

// Header + one row, with the warnings column appended.
void emit_csv(std::ostream& out, const ScenarioSpec& spec,
              const ScenarioResult& result,
              const std::vector<std::string>& warnings);

// The result as one JSON object, "{...}" with no trailing newline — the
// exact bytes the serve layer caches and replays (cache hits are
// byte-identical because this is the only serializer).
std::string result_json_object(const ScenarioSpec& spec,
                               const ScenarioResult& result,
                               const std::vector<std::string>& warnings);

// result_json_object + '\n' (the CLI --format=json output).
void emit_json(std::ostream& out, const ScenarioSpec& spec,
               const ScenarioResult& result,
               const std::vector<std::string>& warnings);

// Human-facing table (the CLI default format).
void emit_table(std::ostream& out, const ScenarioSpec& spec,
                const ScenarioResult& result);

}  // namespace megflood
