#include "core/format.hpp"

#include <cmath>
#include <cstdio>

#include "core/scenario.hpp"
#include "util/table.hpp"

namespace megflood {

std::string format_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  return buffer;
}

std::string format_cli_number(double value) {
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.0f", value);
    return buffer;
  }
  return format_double(value);
}

std::string format_rounds(const Measurement& m, double value, int precision) {
  return m.all_incomplete() ? "n/a (0 done)" : Table::num(value, precision);
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

ResultFields result_fields(const ScenarioSpec& spec,
                           const ScenarioResult& result) {
  const Measurement& m = result.measurement;
  const std::size_t completed = m.rounds.count;
  ResultFields fields = {
      {"model", spec.model},
      {"process", spec.process},
      {"n", std::to_string(result.num_nodes)},
      {"trials", std::to_string(spec.trial.trials)},
      {"completed", std::to_string(completed)},
      {"incomplete", std::to_string(m.incomplete)},
      {"errors", std::to_string(m.errors.size())},
  };
  const auto stat = [&](const std::string& name, double value) {
    fields.emplace_back(name, m.all_incomplete() ? "" : format_double(value));
  };
  stat("rounds_mean", m.rounds.mean);
  stat("rounds_median", m.rounds.median);
  stat("rounds_p90", m.rounds.p90);
  stat("rounds_p99", m.rounds.p99);
  stat("rounds_max", m.rounds.max);
  stat("spreading_median", m.spreading_rounds.median);
  stat("saturation_median", m.saturation_rounds.median);
  for (const auto& [name, summary] : m.metrics) {
    stat(name + "_mean", summary.mean);
    stat(name + "_median", summary.median);
  }
  return fields;
}

std::string join_warnings(const std::vector<std::string>& warnings) {
  std::string joined;
  for (const std::string& w : warnings) {
    joined += (joined.empty() ? "" : "; ") + w;
  }
  return joined;
}

void emit_csv_header(std::ostream& out, const ResultFields& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    out << fields[i].first << (i + 1 < fields.size() ? "," : "\n");
  }
}

void emit_csv_row(std::ostream& out, const ResultFields& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    out << fields[i].second << (i + 1 < fields.size() ? "," : "\n");
  }
}

void emit_csv(std::ostream& out, const ScenarioSpec& spec,
              const ScenarioResult& result,
              const std::vector<std::string>& warnings) {
  auto fields = result_fields(spec, result);
  fields.emplace_back("warnings", join_warnings(warnings));
  emit_csv_header(out, fields);
  emit_csv_row(out, fields);
}

std::string result_json_object(const ScenarioSpec& spec,
                               const ScenarioResult& result,
                               const std::vector<std::string>& warnings) {
  const auto fields = result_fields(spec, result);
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : fields) {
    if (!first) out += ", ";
    first = false;
    out += json_quote(name) + ": ";
    const bool numeric = name != "model" && name != "process";
    if (value.empty()) {
      out += "null";
    } else if (numeric) {
      out += value;
    } else {
      out += json_quote(value);
    }
  }
  out += ", \"warnings\": [";
  for (std::size_t i = 0; i < warnings.size(); ++i) {
    out += (i ? ", " : "") + json_quote(warnings[i]);
  }
  out += "]}";
  return out;
}

void emit_json(std::ostream& out, const ScenarioSpec& spec,
               const ScenarioResult& result,
               const std::vector<std::string>& warnings) {
  out << result_json_object(spec, result, warnings) << "\n";
}

void emit_table(std::ostream& out, const ScenarioSpec& spec,
                const ScenarioResult& result) {
  const Measurement& m = result.measurement;
  out << "scenario: " << scenario_to_cli(spec) << "\n";
  out << "n = " << result.num_nodes << ", completed " << m.rounds.count << "/"
      << spec.trial.trials << " trials\n\n";
  Table table({"statistic", "value"});
  table.add_row({"rounds mean", format_rounds(m, m.rounds.mean)});
  table.add_row({"rounds median", format_rounds(m, m.rounds.median)});
  table.add_row({"rounds p90", format_rounds(m, m.rounds.p90)});
  table.add_row({"rounds p99", format_rounds(m, m.rounds.p99)});
  table.add_row({"rounds max", format_rounds(m, m.rounds.max, 0)});
  table.add_row(
      {"spreading median", format_rounds(m, m.spreading_rounds.median)});
  table.add_row(
      {"saturation median", format_rounds(m, m.saturation_rounds.median)});
  for (const auto& [name, summary] : m.metrics) {
    table.add_row({name + " median", format_rounds(m, summary.median, 0)});
  }
  table.print(out);
  if (m.all_incomplete()) {
    out << "WARNING: no completed trials — round statistics are not "
           "meaningful\n";
  } else if (m.incomplete > 0) {
    out << "WARNING: " << m.incomplete << " incomplete trials\n";
  }
}

}  // namespace megflood
