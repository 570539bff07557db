#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) {
    throw std::invalid_argument("median of an empty sample");
  }
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) {
    return upper;
  }
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

std::optional<TailStat> tail_stat(std::vector<double> samples) {
  const std::size_t n = samples.size();
  if (n < kTailBeyond + 1) {
    return std::nullopt;
  }
  std::sort(samples.begin(), samples.end());
  // Walk down from the cut that leaves exactly kTailBeyond samples above;
  // a value tied with the samples above it does not have them "beyond".
  std::size_t i = n - kTailBeyond - 1;
  while (true) {
    const std::size_t beyond = static_cast<std::size_t>(
        samples.end() -
        std::upper_bound(samples.begin(), samples.end(), samples[i]));
    if (beyond >= kTailBeyond) {
      TailStat tail;
      tail.value = samples[i];
      tail.samples = n;
      tail.beyond = beyond;
      tail.percentile =
          100.0 * static_cast<double>(n - beyond) / static_cast<double>(n);
      return tail;
    }
    if (i == 0) {
      return std::nullopt;
    }
    --i;
  }
}

std::string describe_tail(const std::string& name, const TailStat& tail) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "%s = %.4f ms (p%.1f of %zu rounds, %zu beyond)", name.c_str(),
                tail.value, tail.percentile, tail.samples, tail.beyond);
  return buffer;
}

namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += '"';
    out += json_escape(metrics[i].name);
    out += "\": {\"value\": ";
    out += json_number(metrics[i].value);
    out += ", \"unit\": \"";
    out += json_escape(metrics[i].unit);
    out += "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
