#include "sweep/spec.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "sweep/parallel_for.hpp"
#include "util/assert.hpp"

namespace pdos::sweep {

namespace {

std::string trim(const std::string& text) {
  const auto first = text.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const auto last = text.find_last_not_of(" \t\r");
  return text.substr(first, last - first + 1);
}

std::vector<std::string> split_list(const std::string& value) {
  std::vector<std::string> items;
  std::stringstream stream(value);
  std::string item;
  while (std::getline(stream, item, ',')) {
    item = trim(item);
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

template <typename T, T (*parse)(const std::string&, const std::string&)>
std::vector<T> parse_list(const std::string& value, const std::string& at) {
  std::vector<T> parsed;
  for (const std::string& item : split_list(value)) {
    parsed.push_back(parse(item, at));
  }
  PDOS_REQUIRE(!parsed.empty(), at + ": empty list");
  return parsed;
}

}  // namespace

double parse_double(const std::string& value, const std::string& at) {
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  PDOS_REQUIRE(end != value.c_str() && *end == '\0' && std::isfinite(parsed),
               at + ": not a number: '" + value + "'");
  return parsed;
}

template <typename Int>
Int parse_integer(const std::string& value, const std::string& at) {
  Int parsed = 0;
  const char* end = value.data() + value.size();
  const auto [stop, error] = std::from_chars(value.data(), end, parsed);
  PDOS_REQUIRE(error == std::errc() && stop == end,
               at + ": not an integer in range: '" + value + "'");
  return parsed;
}
template int parse_integer<int>(const std::string&, const std::string&);
template std::uint64_t parse_integer<std::uint64_t>(const std::string&,
                                                    const std::string&);

SpecFile parse_spec(const std::string& text) {
  SpecFile file;
  std::stringstream stream(text);
  std::string raw;
  int line = 0;
  while (std::getline(stream, raw)) {
    ++line;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    raw = trim(raw);
    if (raw.empty()) continue;
    const auto eq = raw.find('=');
    PDOS_REQUIRE(eq != std::string::npos,
                 "spec line " + std::to_string(line) +
                     ": expected 'key = value', got '" + raw + "'");
    const std::string key = trim(raw.substr(0, eq));
    const std::string value = trim(raw.substr(eq + 1));
    const std::string at = "spec line " + std::to_string(line);
    PDOS_REQUIRE(!key.empty() && !value.empty(),
                 "spec line " + std::to_string(line) +
                     ": empty key or value");

    if (key == "scenario") {
      PDOS_REQUIRE(value == "ns2" || value == "testbed",
                   "spec line " + std::to_string(line) +
                       ": scenario must be ns2 or testbed");
      file.spec.scenario = value == "ns2" ? ScenarioKind::kNs2Dumbbell
                                          : ScenarioKind::kTestbed;
    } else if (key == "queue") {
      PDOS_REQUIRE(value == "red" || value == "droptail",
                   "spec line " + std::to_string(line) +
                       ": queue must be red or droptail");
      file.spec.queue =
          value == "red" ? QueueKind::kRed : QueueKind::kDropTail;
    } else if (key == "backend") {
      const auto backend = parse_backend(value);
      PDOS_REQUIRE(backend.has_value(),
                   "spec line " + std::to_string(line) +
                       ": backend must be full, fast or fluid");
      file.spec.backend = *backend;
    } else if (key == "flows") {
      file.spec.flow_counts = parse_list<int, parse_integer<int>>(value, at);
    } else if (key == "textent_ms") {
      file.spec.textents.clear();
      for (double textent : parse_list<double, parse_double>(value, at)) {
        file.spec.textents.push_back(ms(textent));
      }
    } else if (key == "rattack_mbps") {
      file.spec.rattacks.clear();
      for (double rattack : parse_list<double, parse_double>(value, at)) {
        file.spec.rattacks.push_back(mbps(rattack));
      }
    } else if (key == "gamma") {
      file.spec.gammas.clear();
      if (value != "auto") {
        file.spec.gammas = parse_list<double, parse_double>(value, at);
      }
    } else if (key == "gamma_points") {
      file.spec.gamma_points = parse_integer<int>(value, at);
    } else if (key == "kappa") {
      file.spec.kappa = parse_double(value, at);
    } else if (key == "replicates") {
      file.spec.replicates = parse_integer<int>(value, at);
    } else if (key == "base_seed") {
      file.spec.base_seed = parse_integer<std::uint64_t>(value, at);
    } else if (key == "warmup_s") {
      file.spec.control.warmup = sec(parse_double(value, at));
    } else if (key == "measure_s") {
      file.spec.control.measure = sec(parse_double(value, at));
    } else if (key == "threads") {
      file.options.threads = parse_integer<int>(value, at);
      check_worker_count(file.options.threads, at + ": threads");
    } else if (key == "csv") {
      file.csv_path = value;
    } else if (key == "json") {
      file.json_path = value;
    } else if (key == "cache") {
      file.options.cache_path = value;
    } else if (key == "store") {
      file.store_dir = value;
    } else {
      throw ParameterError("spec line " + std::to_string(line) +
                           ": unknown key '" + key + "'");
    }
  }
  file.spec.validate();
  return file;
}

SpecFile load_spec_file(const std::string& path) {
  std::ifstream in(path);
  PDOS_REQUIRE(in.good(), "cannot open spec file: " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return parse_spec(buffer.str());
}

}  // namespace pdos::sweep
